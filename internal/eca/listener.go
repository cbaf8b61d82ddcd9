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

// AfterBegin tracks the transaction and raises the BOT event.
func (l *txnListener) AfterBegin(t *txn.Txn) {
	e := l.engine()
	if !t.IsTop() {
		return
	}
	e.txnMu.Lock()
	e.activeTxns[t.ID()] = t
	e.txnMu.Unlock()
	e.emitTxnEvent(event.BOT, t)
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

// AfterCommit resolves tracking, raises the commit event, and hands
// the transaction's occurrences to the background history
// consolidator (§6.3).
func (l *txnListener) AfterCommit(t *txn.Txn) {
	e := l.engine()
	if !t.IsTop() {
		return
	}
	e.resolveTxn(t, txn.Committed)
	e.emitTxnEvent(event.Commit, t)
	e.handOffHistory(t)
}

// AfterAbort discards the transaction's semi-composed events (their
// life-span ended without completion), resolves tracking, raises the
// abort event, and consolidates history.
func (l *txnListener) AfterAbort(t *txn.Txn) {
	e := l.engine()
	if !t.IsTop() {
		return
	}
	e.endTxnComposition(t.ID(), true)
	e.dropDeferred(t)
	e.resolveTxn(t, txn.Aborted)
	e.emitTxnEvent(event.Abort, t)
	e.handOffHistory(t)
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
	in := &event.Instance{SpecKey: key, Kind: event.KindTxn, Txn: t.ID()}
	e.stamp(in)
	var trigger *txn.Txn
	if phase == event.BOT || phase == event.EOT {
		trigger = t // still active: immediate/deferred rules may couple
		in.Origin = t
	}
	return e.dispatch(p, in, trigger, t)
}

// endTxnComposition ends the life-span of every per-transaction
// composition for the given transaction: completions fire on commit
// paths (flush), semi-composed state is discarded on abort. Only
// transaction-scoped composites participate — global composites have
// no per-transaction composer, and making EOT wait on their
// asynchronous queues would reintroduce exactly the stall the
// asynchronous design avoids. Composites flush inner before outer: an
// inner composite's flush hands its completions to the outer
// composer's queue before the outer flush is queued behind them, so a
// composite-of-composites sees every constituent completed at EOT.
func (e *Engine) endTxnComposition(id uint64, discard bool) {
	e.mu.RLock()
	cms := e.txnComposites
	e.mu.RUnlock()
	for _, cm := range cms {
		cm.flushTxn(id, discard)
	}
}

// resolveTxn moves a transaction from the active set to the bounded
// resolved set used by the causal dependency checks.
const resolvedRetention = 8192

func (e *Engine) resolveTxn(t *txn.Txn, st txn.Status) {
	e.txnMu.Lock()
	defer e.txnMu.Unlock()
	delete(e.activeTxns, t.ID())
	e.resolvedTxns[t.ID()] = st
	e.resolvedOrder = append(e.resolvedOrder, t.ID())
	for len(e.resolvedOrder) > resolvedRetention {
		old := e.resolvedOrder[0]
		e.resolvedOrder = e.resolvedOrder[1:]
		delete(e.resolvedTxns, old)
	}
}
