package eca

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// RuleCtx is passed to rule conditions and actions. Txn is the
// transaction the rule part runs in (a subtransaction of the trigger
// for immediate/deferred coupling, an independent top-level
// transaction for the detached modes). Trigger is the event instance
// that fired the rule; for composite events its Parts carry the
// constituents and their parameters.
//
// A context is valid only for the call it is passed to: the engine
// hands each firing its own element of a per-set backing array, and a
// rule must not keep the pointer, or the *oodb.Ctx from Ctx, after
// its condition or action returns. For immediate and deferred coupling
// the same holds for Txn: the subtransaction lives in that array,
// which goes back to a free list once the set is done and begins other
// subtransactions there. An occurrence the rule raises carries Txn as
// its Origin, and an engine consumer that keeps the occurrence (a
// deferred queue, the detached executor, a composer) pins Txn so that
// its memory is not reused; a rule body's own copy pins nothing.
type RuleCtx struct {
	Engine  *Engine
	DB      *oodb.DB
	Txn     *txn.Txn
	Trigger *event.Instance
	// Context carries the supervised executor's cancellation signal:
	// it is cancelled when the rule's deadline expires, so long-running
	// actions can observe it and return early. Elsewhere it is
	// context.Background().
	Context context.Context

	// ctx is the object-invocation context Ctx returns, filled by the
	// engine with the firing so that Ctx allocates nothing.
	ctx oodb.Ctx
}

// Ctx returns an object-invocation context bound to the rule's
// transaction. A context built outside the engine, or whose DB or Txn
// was changed, gets its object context brought up to date on the call.
func (rc *RuleCtx) Ctx() *oodb.Ctx {
	if rc.ctx.DB != rc.DB || rc.ctx.Txn != rc.Txn {
		rc.ctx = oodb.Ctx{DB: rc.DB, Txn: rc.Txn}
	}
	return &rc.ctx
}

// CondFunc evaluates a rule condition.
type CondFunc func(rc *RuleCtx) (bool, error)

// ActionFunc executes a rule action.
type ActionFunc func(rc *RuleCtx) error

// Rule is an ECA rule. The separation of the triggering event from
// condition and action, each with its own coupling, follows HiPAC and
// the REACH rule system (§2, §3.2). Rules are mapped onto a rule
// object whose evalCond/execAction call the registered functions —
// the Go analogue of the shared-library C functions of §6.1.
type Rule struct {
	Name string
	// EventKey is the spec key of the triggering event (primitive or
	// composite:Name).
	EventKey string
	// Priority orders rules fired by the same event; higher fires
	// first.
	Priority int
	// CondMode couples condition evaluation to the trigger. Zero
	// defaults to ActionMode.
	CondMode Coupling
	// ActionMode couples action execution; it may not be "earlier"
	// than CondMode.
	ActionMode Coupling
	// Cond is the condition; nil means always true.
	Cond CondFunc
	// Action is the action; required.
	Action ActionFunc
	// Disabled rules stay registered but never fire.
	Disabled bool

	// Timeout bounds each detached attempt of this rule; 0 or negative
	// means no deadline.
	Timeout time.Duration
	// Retries is this rule's retry budget for retriable aborts; 0 uses
	// the default of 3, negative disables retries.
	Retries int
	// Breaker is this rule's circuit-breaker threshold; 0 uses the
	// default of 5, negative disables the breaker.
	Breaker int

	// registration metadata, for tie-breaking (§6.4).
	regSeq  uint64
	regTime time.Time
}

// String implements fmt.Stringer.
func (r *Rule) String() string {
	return fmt.Sprintf("rule %s on %s prio %d [%v/%v]",
		r.Name, r.EventKey, r.Priority, r.condMode(), r.ActionMode)
}

func (r *Rule) condMode() Coupling {
	if r.CondMode == 0 {
		return r.ActionMode
	}
	return r.CondMode
}

// validate checks internal consistency (admission against Table 1 is
// done by the engine, which knows the event's category).
func (r *Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("eca: rule needs a name")
	}
	if r.EventKey == "" {
		return fmt.Errorf("eca: rule %s needs a triggering event", r.Name)
	}
	if r.Action == nil {
		return fmt.Errorf("eca: rule %s needs an action", r.Name)
	}
	if r.ActionMode == 0 {
		return fmt.Errorf("eca: rule %s needs an action coupling mode", r.Name)
	}
	if r.condMode().Phase() > r.ActionMode.Phase() {
		return fmt.Errorf("eca: rule %s: condition mode %v later than action mode %v",
			r.Name, r.condMode(), r.ActionMode)
	}
	if r.condMode().Detachedness() && !r.ActionMode.Detachedness() {
		return fmt.Errorf("eca: rule %s: detached condition with non-detached action", r.Name)
	}
	return nil
}

// TieBreak selects the ordering of equal-priority rules (§6.4).
type TieBreak int

// Tie-break policies.
const (
	// OldestFirst fires the rule defined earliest first (default).
	OldestFirst TieBreak = iota
	// NewestFirst fires the rule defined latest first.
	NewestFirst
)

// ruleCompare orders rules: priority descending, then the tie-break.
func ruleCompare(a, b *Rule, tb TieBreak) int {
	if c := cmp.Compare(b.Priority, a.Priority); c != 0 {
		return c
	}
	if tb == NewestFirst {
		return cmp.Compare(b.regSeq, a.regSeq)
	}
	return cmp.Compare(a.regSeq, b.regSeq)
}
