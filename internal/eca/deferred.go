package eca

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/txn"
)

// txnState is what the engine keeps on a top-level transaction
// (txn.SlotRules): the deferred firings waiting for its EOT and the
// occurrences raised in its tree, waiting for the hand-off to the
// global history when it ends.
type txnState struct {
	mu       sync.Mutex
	deferred []deferredEntry
	hist     []HistoryEntry
	// histClosed is set by the hand-off: an occurrence recorded later
	// (an asynchronous completion racing the commit) stays local.
	histClosed bool
}

type deferredEntry struct {
	rule       *Rule
	in         *event.Instance
	at         time.Time // enqueue time; the queue-wait span
	actionOnly bool      // condition already evaluated (imm/def split)
}

// txnStateOf returns the engine's state on top, nil when the
// transaction has raised nothing and queued nothing.
func txnStateOf(top *txn.Txn) *txnState {
	st, _ := top.Attachment(txn.SlotRules).(*txnState)
	return st
}

// ensureTxnState returns the engine's state on top, creating it on
// first use.
func ensureTxnState(top *txn.Txn) *txnState {
	if st := txnStateOf(top); st != nil {
		return st
	}
	return top.Attach(txn.SlotRules, &txnState{}).(*txnState)
}

// enqueueDeferred queues a rule — the whole rule, or only its action
// when the condition was evaluated immediately and held — for
// execution at the top-level transaction's EOT.
func (e *Engine) enqueueDeferred(top *txn.Txn, r *Rule, in *event.Instance, at time.Time, actionOnly bool) {
	in.Retain() // read again at EOT, after the raiser's Recycle
	st := ensureTxnState(top)
	st.mu.Lock()
	st.deferred = append(st.deferred, deferredEntry{rule: r, in: in, at: at, actionOnly: actionOnly})
	st.mu.Unlock()
	e.met.deferredDepth.Add(1)
}

// runDeferred drains the top-level transaction's deferred queue at
// EOT. Rules run as subtransactions in priority order; when the
// SimpleBeforeComplex policy is on, rules triggered by simple events
// fire ahead of rules triggered by composite events (§6.4). Rules may
// enqueue further deferred work; rounds are bounded.
func (e *Engine) runDeferred(top *txn.Txn) error {
	st := txnStateOf(top)
	if st == nil {
		return nil
	}
	for round := 0; ; round++ {
		if round >= e.opts.MaxDeferredRounds {
			return fmt.Errorf("eca: deferred rule cascade exceeded %d rounds in txn %d",
				e.opts.MaxDeferredRounds, top.ID())
		}
		st.mu.Lock()
		batch := st.deferred
		st.deferred = nil
		st.mu.Unlock()
		if len(batch) == 0 {
			return nil
		}
		e.met.deferredDepth.Add(-int64(len(batch)))
		// The governor's second shed rung: from the shedding state on,
		// the whole batch is dead-lettered instead of executed and the
		// triggering transaction commits without it. Deferred rules run
		// in subtransactions of the trigger, so the only semantics lost
		// is the rule work itself — which is exactly what the record in
		// the dead-letter queue preserves for replay. Immediate rules
		// are untouched: they already ran inline, inside the trigger.
		if e.gov.ShouldShed(governor.ClassDeferred) {
			for _, entry := range batch {
				e.shed(governor.ClassDeferred, entry.rule, entry.in)
			}
			continue
		}
		e.met.rounds.Inc()
		e.met.roundDepth.SetMax(int64(round + 1))
		e.orderDeferred(batch)
		if err := e.runDeferredBatch(top, batch); err != nil {
			return err
		}
	}
}

func (e *Engine) orderDeferred(batch []deferredEntry) {
	tb := e.opts.TieBreak
	sbc := e.opts.SimpleBeforeComplex
	slices.SortStableFunc(batch, func(a, b deferredEntry) int {
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

// runDeferredBatch runs one round's deferred firings, each with its
// element of one backing array of rule contexts.
func (e *Engine) runDeferredBatch(top *txn.Txn, batch []deferredEntry) error {
	rcs := make([]RuleCtx, len(batch))
	mark := e.clk.Now()
	if e.opts.Exec == ParallelExec && len(batch) > 1 {
		// The batch runs on its own bounded goroutine set, not the
		// detached pool: detached rules may block on locks held by the
		// very transaction whose EOT is running this batch, so sharing
		// the pool could deadlock the commit. Panics are recovered in
		// the batch worker and surface as that entry's error.
		fns := make([]func() error, len(batch))
		for i, entry := range batch {
			rc, begun := &rcs[i], mark
			fns[i] = func() error {
				sb := spanBuf{tr: e.tracer}
				defer sb.flush()
				return e.runDeferredEntry(top, entry, rc, &sb, &begun)
			}
		}
		return errors.Join(runBatch(fns)...)
	}
	sb := spanBuf{tr: e.tracer}
	defer sb.flush()
	for i, entry := range batch {
		if err := e.runDeferredEntry(top, entry, &rcs[i], &sb, &mark); err != nil {
			return err
		}
	}
	return nil
}

// runDeferredEntry runs one deferred firing as a subtransaction of top.
func (e *Engine) runDeferredEntry(top *txn.Txn, entry deferredEntry, rc *RuleCtx, sb *spanBuf, mark *time.Time) error {
	// The queue-wait span: enqueue (during the transaction) to dequeue
	// (EOT processing) — the end of the firing before it.
	start := *mark
	dwell := start.Sub(entry.at)
	e.met.deferredDwell.Observe(dwell)
	sb.add(entry.in.Trace, obs.Span{Stage: "enqueue-deferred", Key: entry.rule.Name, Start: entry.at, Dur: dwell})
	child, err := top.BeginChild()
	if err != nil {
		return fmt.Errorf("eca: deferred rule %s: %w", entry.rule.Name, err)
	}
	e.met.firedDeferred.Inc()
	defer func() { e.met.latDeferred.Observe(mark.Sub(start)) }()
	if entry.actionOnly {
		return e.runActionOnly(child, entry.rule, entry.in, rc, sb, mark)
	}
	return e.runRuleGuarded(context.Background(), child, entry.rule, entry.in, rc, sb, mark)
}

// dropDeferred discards an aborting transaction's queued deferred
// work — the firings die with their trigger — and releases the
// governor's depth accounting for them.
func (e *Engine) dropDeferred(top *txn.Txn) {
	st := txnStateOf(top)
	if st == nil {
		return
	}
	st.mu.Lock()
	n := len(st.deferred)
	st.deferred = nil
	st.mu.Unlock()
	if n > 0 {
		e.met.deferredDepth.Add(-int64(n))
	}
}

// runActionOnly executes just the action part of a rule whose
// condition was already evaluated immediately (imm/def split), with
// the same panic containment as a full rule body.
func (e *Engine) runActionOnly(t *txn.Txn, r *Rule, in *event.Instance, rc *RuleCtx, sb *spanBuf, mark *time.Time) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = e.recoverRulePanic(t, r, in, p)
		}
	}()
	f := e.beginFiring(context.Background(), t, r, in, rc, *mark)
	defer f.finish(mark, sb)
	return f.action(t, r, rc)
}

// Detached firings are routed to the supervised executor; see
// spawnDetached in executor.go.
