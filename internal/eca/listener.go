package eca

import (
	"repro/internal/event"
	"repro/internal/txn"
)

// txnListener adapts the engine to the transaction manager's
// lifecycle hooks. Flow-control events (BOT, EOT, commit, abort) are
// raised for top-level transactions; EOT additionally drives the
// deferred-rule machinery and the composite life-span rules.
type txnListener Engine

func (l *txnListener) engine() *Engine { return (*Engine)(l) }

// AfterBegin raises the BOT event.
func (l *txnListener) AfterBegin(t *txn.Txn) {
	if t.IsTop() {
		l.engine().emitTxnEvent(event.BOT, t)
	}
}

// BeforeCommit is EOT: the point at which the transaction has
// completed its work but not committed. Order (§3.2, §6.4): raise the
// EOT event, drain the asynchronous composers, flush this
// transaction's per-transaction compositions (their life-span is the
// transaction), then run the deferred queue under the transaction
// policy manager's control.
func (l *txnListener) BeforeCommit(t *txn.Txn) error {
	e := l.engine()
	if err := e.emitTxnEvent(event.EOT, t); err != nil {
		return err
	}
	e.endTxnComposition(t.ID(), false)
	return e.runDeferred(t)
}

// AfterCommit discards what the transaction's compositions still hold
// (occurrences its deferred rules raised after the EOT flush: the
// life-span ended), raises the commit event, hands the transaction's
// occurrences to the background history consolidator (§6.3) and moves
// the sequential-causal firings parked on it on.
func (l *txnListener) AfterCommit(t *txn.Txn) {
	e := l.engine()
	if !t.IsTop() {
		return
	}
	e.endTxnComposition(t.ID(), true)
	e.emitTxnEvent(event.Commit, t)
	e.endTxn(t)
}

// AfterAbort discards the transaction's semi-composed events (their
// life-span ended without completion), raises the abort event,
// consolidates history and drops the sequential-causal firings parked
// on it.
func (l *txnListener) AfterAbort(t *txn.Txn) {
	e := l.engine()
	if !t.IsTop() {
		return
	}
	e.endTxnComposition(t.ID(), true)
	e.dropDeferred(t)
	e.emitTxnEvent(event.Abort, t)
	e.endTxn(t)
}

// endTxn closes an ended top-level transaction's engine state: its
// occurrences go to the global history, the sequential-causal firings
// parked on it move on, and the state goes back to its pool. From the
// owner's change on, a late record or park leaves the state alone, and
// so does a second end.
func (e *Engine) endTxn(top *txn.Txn) {
	st := txnStateOf(top)
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.owner != top {
		st.mu.Unlock()
		return
	}
	hist, parked := st.hist, st.parked
	st.owner = releasedOwner // hist is handed off outside mu
	st.mu.Unlock()
	e.handOffHistory(hist)
	st.release()
	e.exec.resume(parked)
}

// emitTxnEvent raises a flow-control event for t. Rule transactions
// are silent: they never raise flow-control events (termination).
func (e *Engine) emitTxnEvent(phase event.TxnPhase, t *txn.Txn) error {
	if isRuleTxn(t) {
		return nil
	}
	key := event.TxnSpec{Phase: phase}.Key()
	// Skip the whole path when nobody listens — same useless-overhead
	// discipline as the sentry.
	p := e.planFor(key)
	if p == nil {
		return nil
	}
	// Every flow event carries its transaction as Origin: the causal
	// modes read a commit or abort event's outcome through it.
	in := &event.Instance{SpecKey: key, Kind: event.KindTxn, Txn: t.ID(), Origin: t}
	e.stamp(in)
	var trigger *txn.Txn
	if phase == event.BOT || phase == event.EOT {
		trigger = t // still active: immediate/deferred rules may couple
	}
	return e.dispatch(p, in, trigger, t)
}

// endTxnComposition ends the life-span of the given transaction's
// per-transaction compositions: completions fire on commit paths
// (flush), semi-composed state is discarded on abort. Only the
// transaction-scoped composites the transaction delivered to take
// part; the others cost no message. Global composites have no
// per-transaction composer, and making EOT wait on their asynchronous
// queues would reintroduce exactly the stall the asynchronous design
// avoids. Composites flush inner before outer: an inner composite's
// flush hands its completions to the outer composer — which records
// the transaction there — before it acknowledges, so a
// composite-of-composites sees every constituent completed at EOT.
func (e *Engine) endTxnComposition(id uint64, discard bool) {
	cms := e.txnComposites.Load()
	if cms == nil {
		return
	}
	for _, cm := range *cms {
		cm.mu.Lock()
		_, fed := cm.perTxn[id]
		cm.mu.Unlock()
		if fed {
			cm.call(compMsg{endTxn: id, discard: discard})
		}
	}
}
