package eca

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/txn"
)

// txnState is what the engine keeps on a top-level transaction
// (txn.SlotRules): the deferred firings waiting for its EOT, the
// occurrences raised in its tree, waiting for the hand-off to the
// global history when it ends, and the sequential-causal firings
// waiting for it to end. The first two start on inline room.
//
// A state is recycled when its transaction ends (endTxn), while the
// transaction, which callers hold after Commit, still points at it: a
// late user — an occurrence recorded after the end, a firing parking
// on a trigger that is ending — reaches the state through its
// transaction and must find out, under mu, that the state serves it no
// longer (owner), and leave it alone.
type txnState struct {
	mu sync.Mutex
	// owner is the top-level transaction the state serves; another
	// transaction, or releasedOwner, once the state was handed back at
	// its owner's end. Written under mu.
	owner    *txn.Txn
	deferred []queued
	hist     []HistoryEntry
	parked   []ruleJob

	deferredInline [deferredRoom]queued
	histInline     [histRoom]HistoryEntry
}

// Inline room of a txnState, from what the yardstick's workloads queue
// and record per transaction (DESIGN.md §16): past it the queue or the
// occurrence list grows on the heap.
const (
	deferredRoom = 8
	histRoom     = 4
)

// txnStates holds the states of ended transactions for the next ones.
// A per-P pool, not a mutex-guarded free list: every transaction that
// raises takes one and gives one back.
var txnStates = sync.Pool{New: func() any { return new(txnState) }}

// queued is one deferred firing waiting for its transaction's EOT: the
// whole rule, or only its action when the condition was evaluated
// immediately and held (imm/def split).
type queued struct {
	rule       *Rule
	in         *event.Instance
	at         time.Time // when a deferred firing was queued
	actionOnly bool
}

// txnStateOf returns the engine's state on top, nil when the
// transaction has raised nothing and queued nothing. Once top ended
// the state may serve another transaction: see txnState.
func txnStateOf(top *txn.Txn) *txnState {
	st, _ := top.Attachment(txn.SlotRules).(*txnState)
	return st
}

// ensureTxnState returns the engine's state on top, taking one from
// the pool on first use.
func ensureTxnState(top *txn.Txn) *txnState {
	if st := txnStateOf(top); st != nil {
		return st
	}
	st := txnStates.Get().(*txnState)
	st.mu.Lock()
	st.owner = top
	st.deferred, st.hist = st.deferredInline[:0], st.histInline[:0]
	st.mu.Unlock()
	if won := top.Attach(txn.SlotRules, st).(*txnState); won != st {
		st.release() // a concurrent first user attached its own
		return won
	}
	return st
}

// lockLive locks st when it still serves top and reports whether it
// does; a state handed on at top's end is left unlocked. Only a live
// transaction's deferred queue is touched, and the check is what keeps
// a use after the end out of the queue of the transaction the state
// serves now.
func (st *txnState) lockLive(top *txn.Txn) bool {
	st.mu.Lock()
	if st.owner != top {
		st.mu.Unlock()
		return false
	}
	return true
}

// release hands st back to the pool: what it holds is dropped, its
// inline room cleared, and its owner becomes releasedOwner, so its
// last owner's late users find it serves them no longer.
func (st *txnState) release() {
	st.mu.Lock()
	st.owner = releasedOwner
	clear(st.deferredInline[:])
	clear(st.histInline[:])
	st.deferred, st.hist, st.parked = nil, nil, nil
	st.mu.Unlock()
	txnStates.Put(st)
}

// enqueueDeferred queues a rule — the whole rule, or only its action
// when the condition was evaluated immediately and held — for
// execution at the top-level transaction's EOT. It fails once top has
// ended: there is no EOT left to run it at.
func (e *Engine) enqueueDeferred(top *txn.Txn, r *Rule, in *event.Instance, at time.Time, actionOnly bool) error {
	st := ensureTxnState(top)
	if !st.lockLive(top) {
		return fmt.Errorf("eca: rule %s: deferred coupling but transaction %d has ended", r.Name, top.ID())
	}
	// Read again at EOT, after the raiser's Recycle. Under st.mu because
	// parallel sibling rules queue the deferred actions of one instance.
	in.Retain()
	st.deferred = append(st.deferred, queued{rule: r, in: in, at: at, actionOnly: actionOnly})
	st.mu.Unlock()
	e.met.deferredDepth.Add(1)
	return nil
}

// runDeferred drains the top-level transaction's deferred queue at
// EOT. Rules run as subtransactions in priority order; when the
// SimpleBeforeComplex policy is on, rules triggered by simple events
// fire ahead of rules triggered by composite events (§6.4). Rules may
// enqueue further deferred work; each round runs one cascade level
// deeper, so the cascade-depth guard bounds the rounds.
func (e *Engine) runDeferred(top *txn.Txn) error {
	st := txnStateOf(top)
	if st == nil {
		return nil
	}
	for {
		// The set is built before the queue gets its room back: the set's
		// rules may queue the next round's work while they run.
		if !st.lockLive(top) {
			return nil
		}
		batch := st.deferred
		if len(batch) == 0 {
			st.mu.Unlock()
			return nil
		}
		e.orderDeferred(batch)
		// The round's set is the first rule's manager's: a queued rule
		// was registered, and a registered key's manager and plan stay.
		sets := &e.planFor(batch[0].rule.EventKey).m.sets
		set := sets.take(len(batch))
		for i := range batch {
			set[i].queued = batch[i]
		}
		clear(batch)
		st.deferred = batch[:0]
		st.mu.Unlock()
		e.met.deferredDepth.Add(-int64(len(set)))
		// The governor's second shed rung: from the shedding state on,
		// the whole batch is dead-lettered instead of executed and the
		// triggering transaction commits without it. Deferred rules run
		// in subtransactions of the trigger, so the only semantics lost
		// is the rule work itself — which is exactly what the record in
		// the dead-letter queue preserves for replay. Immediate rules
		// are untouched: they already ran inline, inside the trigger.
		if e.gov.ShouldShed(governor.ClassDeferred) {
			for i := range set {
				e.shed(governor.ClassDeferred, set[i].rule, set[i].in)
			}
			sets.release(top, set)
			continue
		}
		e.met.rounds.Inc()
		// A queued instant is an earlier boundary of this transaction,
		// so the round's start is derived from it, not read afresh.
		start := e.after(set[0].at)
		mark := start
		ran, err := e.fireSet(top, set, &mark)
		sets.release(top, set)
		e.met.firedDeferred.Add(uint64(ran))
		e.met.latDeferred.Observe(mark.Sub(start))
		if err != nil {
			return err
		}
	}
}

func (e *Engine) orderDeferred(batch []queued) {
	tb := e.opts.TieBreak
	sbc := e.opts.SimpleBeforeComplex
	slices.SortStableFunc(batch, func(a, b queued) int {
		if sbc {
			// Rules on simple events first.
			if ac, bc := a.in.Kind == event.KindComposite, b.in.Kind == event.KindComposite; ac != bc {
				if ac {
					return 1
				}
				return -1
			}
		}
		return ruleCompare(a.rule, b.rule, tb)
	})
}

// dropDeferred discards an aborting transaction's queued deferred
// work — the firings die with their trigger — and releases the
// governor's depth accounting for them.
func (e *Engine) dropDeferred(top *txn.Txn) {
	st := txnStateOf(top)
	if st == nil {
		return
	}
	if !st.lockLive(top) {
		return
	}
	n := len(st.deferred)
	clear(st.deferred)
	st.deferred = st.deferred[:0]
	st.mu.Unlock()
	if n > 0 {
		e.met.deferredDepth.Add(-int64(n))
	}
}

// Detached firings are routed to the supervised executor; see
// spawnDetached in executor.go.
