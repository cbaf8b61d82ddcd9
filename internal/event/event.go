// Package event defines the REACH event model: primitive event
// specifications (classes of events) and event instances (occurrences
// carrying their parameters).
//
// REACH recognizes method-invocation events, state-change events,
// flow-control (transaction) events, temporal events — absolute,
// relative, periodic — and milestones; composite events are built from
// these by the algebra package (paper §3.1).
package event

import (
	"fmt"
	"time"
)

// Kind classifies events.
type Kind int

// Event kinds.
const (
	KindMethod Kind = iota + 1
	KindState
	KindTxn
	KindTemporal
	KindComposite
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMethod:
		return "method"
	case KindState:
		return "state"
	case KindTxn:
		return "txn"
	case KindTemporal:
		return "temporal"
	case KindComposite:
		return "composite"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// When says whether a method event is raised before or after the
// method body executes.
type When int

// Method event positions.
const (
	Before When = iota + 1
	After
)

// String implements fmt.Stringer.
func (w When) String() string {
	if w == Before {
		return "before"
	}
	return "after"
}

// TxnPhase identifies flow-control (transaction) events.
type TxnPhase int

// Transaction event phases. BOT/EOT follow the paper's terminology:
// EOT is raised when the transaction finishes its work, before the
// commit decision — it is the hook at which deferred rules run.
const (
	BOT TxnPhase = iota + 1
	EOT
	Commit
	Abort
)

// String implements fmt.Stringer.
func (p TxnPhase) String() string {
	switch p {
	case BOT:
		return "BOT"
	case EOT:
		return "EOT"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	}
	return fmt.Sprintf("TxnPhase(%d)", int(p))
}

// Spec is an event specification: a class of events that can be
// subscribed to. Its Key is the canonical identity under which ECA
// managers register rules and composers.
type Spec interface {
	Key() string
	Kind() Kind
}

// MethodSpec matches invocations of Class.Method, before or after the
// body runs. Explicit user signals are modelled as method events
// (paper §3.1).
type MethodSpec struct {
	Class  string
	Method string
	When   When
}

// Key implements Spec.
func (s MethodSpec) Key() string {
	return fmt.Sprintf("method:%s.%s:%s", s.Class, s.Method, s.When)
}

// Kind implements Spec.
func (MethodSpec) Kind() Kind { return KindMethod }

// StateSpec matches changes of attribute Attr on instances of Class —
// the value changes the paper could not trap in closed systems (§4).
type StateSpec struct {
	Class string
	Attr  string
}

// Key implements Spec.
func (s StateSpec) Key() string { return fmt.Sprintf("state:%s.%s", s.Class, s.Attr) }

// Kind implements Spec.
func (StateSpec) Kind() Kind { return KindState }

// TxnSpec matches flow-control events of one phase. A zero Class
// matches the phase for every transaction.
type TxnSpec struct {
	Phase TxnPhase
}

// Key implements Spec. The four phases have constant keys: the
// transaction manager's listener asks for them on every top-level
// transaction, before it knows whether anyone listens.
func (s TxnSpec) Key() string {
	switch s.Phase {
	case BOT:
		return "txn:BOT"
	case EOT:
		return "txn:EOT"
	case Commit:
		return "txn:commit"
	case Abort:
		return "txn:abort"
	}
	return "txn:" + s.Phase.String()
}

// Kind implements Spec.
func (TxnSpec) Kind() Kind { return KindTxn }

// TemporalKind discriminates temporal specifications.
type TemporalKind int

// Temporal specification kinds (paper §3.1: absolute or relative,
// periodic or aperiodic; milestones for time-constrained processing).
const (
	Absolute TemporalKind = iota + 1
	Relative
	Periodic
	MilestoneKind
)

// TemporalSpec matches points in time.
//
//   - Absolute: fires once at At.
//   - Relative: fires once Delay after the spec is armed.
//   - Periodic: fires every Period after arming.
//   - MilestoneKind: fires Delay after the transaction named by the
//     arming context begins, unless the milestone is reached first —
//     used to invoke contingency plans before a deadline (paper §3.1).
type TemporalSpec struct {
	Name     string // distinguishes otherwise-identical temporal specs
	Temporal TemporalKind
	At       time.Time
	Delay    time.Duration
	Period   time.Duration
}

// Key implements Spec.
func (s TemporalSpec) Key() string {
	switch s.Temporal {
	case Absolute:
		return fmt.Sprintf("time:abs:%s:%d", s.Name, s.At.UnixNano())
	case Relative:
		return fmt.Sprintf("time:rel:%s:%d", s.Name, s.Delay)
	case Periodic:
		return fmt.Sprintf("time:per:%s:%d", s.Name, s.Period)
	case MilestoneKind:
		return fmt.Sprintf("time:mil:%s:%d", s.Name, s.Delay)
	}
	return "time:invalid"
}

// Kind implements Spec.
func (TemporalSpec) Kind() Kind { return KindTemporal }

// CompositeSpec names a composite event defined by an algebra
// expression. The expression itself lives with the composite
// ECA-manager; specs only carry identity.
type CompositeSpec struct {
	Name string
}

// Key implements Spec.
func (s CompositeSpec) Key() string { return "composite:" + s.Name }

// Kind implements Spec.
func (CompositeSpec) Kind() Kind { return KindComposite }

// Instance is one event occurrence. ECA-managers know which parameters
// must travel with an event: the OID of the object acted upon, the
// transaction id, a timestamp, and attributes taken from the method
// invocation message (paper §6.3).
type Instance struct {
	SpecKey string
	Kind    Kind
	Time    time.Time
	Seq     uint64 // global occurrence order, assigned by the engine
	Txn     uint64 // originating transaction; 0 for temporal events
	OID     uint64 // receiver object; 0 when not applicable
	Class   string
	Method  string
	Args    []any
	Result  any
	Parts   []*Instance // constituents, for composite instances

	// Trace is the lifecycle trace the occurrence belongs to, minted
	// by the engine when it dispatches the occurrence and inherited by
	// composite instances from their completing constituent. Zero
	// means untraced.
	Trace uint64

	// Origin is the live transaction handle the event was raised in
	// (when any). It lets the rule engine start immediate rules as
	// subtransactions of the exact transaction — possibly itself a
	// rule subtransaction — that raised the event. Layering keeps the
	// type opaque here.
	Origin any

	// Depth is the cascade depth: 0 for events raised by application
	// transactions, n+1 for events raised by a rule that was itself
	// fired at depth n. Composite instances inherit the deepest
	// constituent. The engine's cascade-depth guard bounds it.
	Depth int

	// retained marks a pooled instance as escaped to an asynchronous
	// consumer (deferred queue, detached executor, composite
	// composer); Recycle leaves it to the garbage collector. Written
	// only on the raising goroutine before Emit returns.
	retained bool
}

// String implements fmt.Stringer.
func (in *Instance) String() string {
	if in.Txn != 0 {
		return fmt.Sprintf("%s@%d[txn=%d]", in.SpecKey, in.Seq, in.Txn)
	}
	return fmt.Sprintf("%s@%d", in.SpecKey, in.Seq)
}

// Leaves calls visit on each primitive constituent of the instance in
// Parts order (on the instance itself when it has no parts) until visit
// returns false, and reports whether the walk visited every leaf. It is
// the one walk over a composite's constituents: the composer finding
// the originating transaction, the engine stamping depth and trace and
// reading each constituent's outcome through its Origin.
func (in *Instance) Leaves(visit func(*Instance) bool) bool {
	if len(in.Parts) == 0 {
		return visit(in)
	}
	for _, p := range in.Parts {
		if !p.Leaves(visit) {
			return false
		}
	}
	return true
}

// Transactions returns the set of distinct transactions the instance's
// primitive constituents originate from. A purely temporal instance
// contributes nothing. This drives the event-category classification
// of §3.2 (single-transaction vs multi-transaction composites).
func (in *Instance) Transactions() map[uint64]bool {
	out := make(map[uint64]bool)
	in.Leaves(func(p *Instance) bool {
		if p.Txn != 0 {
			out[p.Txn] = true
		}
		return true
	})
	return out
}

// Flatten returns the primitive constituents of the instance in
// occurrence order (the instance itself when primitive).
func (in *Instance) Flatten() []*Instance {
	var out []*Instance
	in.Leaves(func(p *Instance) bool {
		out = append(out, p)
		return true
	})
	return out
}
