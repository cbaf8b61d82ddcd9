// Package eca implements the REACH ECA managers and rule engine: the
// event-category × coupling-mode admission matrix of Table 1, the six
// coupling modes, prioritized rule firing with tie-break policies,
// deferred execution at EOT, the detached executor with causal
// dependencies, asynchronous event composition on per-composite
// goroutines, and the local/global event histories of §6.3.
package eca

import (
	"fmt"

	"repro/internal/event"
)

// Coupling is the execution mode of a rule (or rule part) relative to
// the triggering user-submitted transaction (paper §3.2).
type Coupling int

// The six REACH coupling modes.
const (
	// Immediate runs the rule as a subtransaction at the point the
	// event is detected, inside the triggering transaction.
	Immediate Coupling = iota + 1
	// Deferred runs the rule as a subtransaction after the triggering
	// transaction completes its work but before it commits.
	Deferred
	// Detached runs the rule in an independent top-level transaction.
	Detached
	// DetachedParallelCausal runs the rule in a separate transaction
	// that may begin in parallel but may not commit unless the
	// triggering transaction commits.
	DetachedParallelCausal
	// DetachedSequentialCausal runs the rule in a separate transaction
	// that may initiate only after the triggering transaction has
	// committed.
	DetachedSequentialCausal
	// DetachedExclusiveCausal runs the rule in a separate transaction
	// that may commit only if the triggering transaction aborts.
	DetachedExclusiveCausal
)

// String implements fmt.Stringer.
func (c Coupling) String() string {
	switch c {
	case Immediate:
		return "immediate"
	case Deferred:
		return "deferred"
	case Detached:
		return "detached"
	case DetachedParallelCausal:
		return "parallel-causal"
	case DetachedSequentialCausal:
		return "sequential-causal"
	case DetachedExclusiveCausal:
		return "exclusive-causal"
	}
	return fmt.Sprintf("Coupling(%d)", int(c))
}

// Detachedness reports whether the mode runs in its own top-level
// transaction.
func (c Coupling) Detachedness() bool {
	switch c {
	case Detached, DetachedParallelCausal, DetachedSequentialCausal, DetachedExclusiveCausal:
		return true
	}
	return false
}

// Phase ranks the mode by when it runs relative to the triggering
// transaction: 0 immediate, 1 deferred (at EOT), 2 every detached
// mode. A rule's condition may not run in a later phase than its
// action, and only rules in the same phase compete for firing order.
func (c Coupling) Phase() int {
	switch c {
	case Immediate:
		return 0
	case Deferred:
		return 1
	}
	return 2
}

// Couplings lists all six modes in the paper's Table 1 row order.
func Couplings() []Coupling {
	return []Coupling{
		Immediate, Deferred, Detached,
		DetachedParallelCausal, DetachedSequentialCausal, DetachedExclusiveCausal,
	}
}

// Category classifies the triggering event for admission purposes
// (the columns of Table 1).
type Category int

// Event categories of §3.2.
const (
	// SingleMethod covers primitive database events: application
	// method invocations, state changes, and transaction-related
	// events — they can always be related to the transaction in which
	// they were raised.
	SingleMethod Category = iota + 1
	// PurelyTemporal covers simple temporal events, which occur
	// independently of any transaction.
	PurelyTemporal
	// CompositeSingleTxn covers composite events whose primitive
	// events all originate in a single transaction.
	CompositeSingleTxn
	// CompositeMultiTxn covers composite events whose primitive events
	// originate in different transactions.
	CompositeMultiTxn
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case SingleMethod:
		return "single-method"
	case PurelyTemporal:
		return "purely-temporal"
	case CompositeSingleTxn:
		return "composite-1tx"
	case CompositeMultiTxn:
		return "composite-ntx"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Categories lists the four categories in the paper's column order.
func Categories() []Category {
	return []Category{SingleMethod, PurelyTemporal, CompositeSingleTxn, CompositeMultiTxn}
}

// Supported reports whether a rule triggered by an event of the given
// category may execute under the given coupling mode — the admission
// predicate that IS the paper's Table 1.
//
// Rationale, per §3.2: single-method events relate to their raising
// transaction, so every mode works. Purely temporal events occur
// outside any transaction, so only fully detached execution is
// defined. Single-transaction composites could semantically couple
// immediately, but allowing it would stall normal processing on every
// method event until the composers report no completion — prohibitive
// — so the combination is rejected ("(N)" in the table). For
// multi-transaction composites, immediate and deferred are ambiguous
// (which transaction?) and the causal modes require the dependency to
// hold against all constituent transactions.
func Supported(cat Category, mode Coupling) bool {
	switch cat {
	case SingleMethod:
		return true
	case PurelyTemporal:
		return mode == Detached
	case CompositeSingleTxn:
		return mode != Immediate
	case CompositeMultiTxn:
		return mode.Detachedness()
	}
	return false
}

// CategoryOfKey derives the admission category from a spec key's
// kind, with composite scope resolved by the caller (the engine knows
// each composite's declaration).
func CategoryOfKey(kind event.Kind, compositeCrossTxn bool) Category {
	switch kind {
	case event.KindMethod, event.KindState, event.KindTxn:
		return SingleMethod
	case event.KindTemporal:
		return PurelyTemporal
	case event.KindComposite:
		if compositeCrossTxn {
			return CompositeMultiTxn
		}
		return CompositeSingleTxn
	}
	return SingleMethod
}
