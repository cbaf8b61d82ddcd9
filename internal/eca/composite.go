package eca

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/event"
)

// compositeMgr is a composite ECA-manager: it owns the composers for
// one composite event declaration — one per live transaction for
// transaction-scoped composites, one global instance for cross-
// transaction composites — and, in the default asynchronous mode, a
// goroutine that performs the composition off the critical path
// (§6.3: "keep event composition simple and execute it in parallel").
type compositeMgr struct {
	engine *Engine
	decl   *algebra.Composite
	mgr    *Manager // manager of composite:Name, holding the rules

	mu     sync.Mutex
	global *algebra.Composer
	// perTxn holds the composer of every live transaction that has
	// delivered to this composite. The sender creates the entry before
	// it queues its delivery, so the map is also the record of the
	// transactions whose EOT has to visit this composite.
	perTxn map[uint64]txnComposer
	// spare, reset at the end of its transaction, serves the next one
	// and pins nothing. One suffices: on plant-composite no composite
	// had two transactions composing at once (allocs_per_txn 30.56 with
	// one spare or four, 48.9 with none).
	spare *algebra.Composer

	in     chan compMsg
	closed chan struct{}
}

// txnComposer is one transaction's composer. since is the Seq of the
// first of its transaction's occurrences it processed (0 before): a
// temporal occurrence reaches it only if raised and queued after that.
type txnComposer struct {
	cp    *algebra.Composer
	since uint64
}

type compMsg struct {
	in *event.Instance
	// endTxn > 0 ends the life-span of that transaction's composer:
	// flushed, or on abort (discard) reset without completing anything.
	endTxn  uint64
	discard bool
	// ack, when non-nil, is closed after the message is processed.
	ack chan struct{}
}

// DefineComposite registers a composite event declaration: a manager
// for its completions is created and its primitive constituents are
// subscribed so primitive ECA-managers propagate to it (Figure 2).
func (e *Engine) DefineComposite(decl *algebra.Composite) error {
	if err := decl.Validate(); err != nil {
		return err
	}
	cm := &compositeMgr{
		engine: e,
		decl:   decl,
		perTxn: make(map[uint64]txnComposer),
		closed: make(chan struct{}),
	}
	if decl.Scope == algebra.ScopeGlobal {
		cp, err := algebra.NewComposer(decl)
		if err != nil {
			return err
		}
		cm.global = cp
	}
	if !e.opts.SyncComposition {
		cm.in = make(chan compMsg, e.opts.ComposerBuffer)
	}
	key := decl.Key()
	e.mu.Lock()
	if _, dup := e.composites[key]; dup {
		e.mu.Unlock()
		return fmt.Errorf("eca: composite %q already defined", decl.Name)
	}
	cm.mgr = e.managerLocked(key)
	e.composites[key] = cm
	cms := innerFirst(e.composites)
	e.txnComposites.Store(&cms)
	// Wire each constituent's manager to propagate to this composite.
	// Sentry subscriptions happen after e.mu is released: the
	// dispatcher takes its own lock and must never nest inside ours
	// (lockdiscipline).
	var subscribe []string
	for _, prim := range algebra.PrimitiveKeys(decl.Expr) {
		pm := e.managerLocked(prim)
		pm.composers = append(pm.composers, cm)
		if k := kindOfKey(prim); k == event.KindMethod || k == event.KindState {
			subscribe = append(subscribe, prim)
		}
	}
	e.republishLocked(key)
	e.mu.Unlock()
	if cm.in != nil {
		go cm.loop()
	}
	for _, prim := range subscribe {
		e.disp.Subscribe(prim)
	}
	return nil
}

// innerFirst lists the transaction-scoped composites so that each
// comes after every composite among its constituents (a depth-first
// walk of the constituent graph, keys visited in sorted order so the
// result does not depend on map iteration).
func innerFirst(comps map[string]*compositeMgr) []*compositeMgr {
	keys := make([]string, 0, len(comps))
	for k := range comps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*compositeMgr
	seen := make(map[string]bool, len(comps))
	var visit func(key string)
	visit = func(key string) {
		cm := comps[key]
		if cm == nil || seen[key] {
			return
		}
		seen[key] = true
		for _, prim := range algebra.PrimitiveKeys(cm.decl.Expr) {
			visit(prim)
		}
		if cm.decl.Scope == algebra.ScopeTransaction {
			out = append(out, cm)
		}
	}
	for _, k := range keys {
		visit(k)
	}
	return out
}

// Composites reports the number of defined composite events.
func (e *Engine) Composites() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.composites)
}

// propagate hands a primitive occurrence to every composite manager
// containing it. In asynchronous mode this is a channel send; the
// caller proceeds without waiting — unless a composite has an
// (unsafe) immediate rule, in which case the caller must stall for
// the acknowledgement, which is precisely the cost Table 1's "(N)"
// refuses.
func (e *Engine) propagate(p *plan, in *event.Instance) {
	if len(p.feeds) == 0 {
		return
	}
	// Composers may hold the instance past this call (channel delivery,
	// semi-composed state); pin it so a pooled instance is not recycled
	// under them.
	in.Retain()
	for _, f := range p.feeds {
		f.cm.deliver(in, f.stall)
	}
}

// deliver hands one occurrence to the composite. For a transaction-
// scoped composite the raiser first gives the occurrence's transaction
// its composer, recording under cm.mu, before the delivery is queued,
// that this transaction's EOT has to visit the composite.
func (cm *compositeMgr) deliver(in *event.Instance, stall bool) {
	if cm.decl.Scope == algebra.ScopeTransaction && in.Txn != 0 {
		cm.mu.Lock()
		if _, ok := cm.perTxn[in.Txn]; !ok {
			cm.perTxn[in.Txn] = txnComposer{cp: cm.takeLocked()}
		}
		cm.mu.Unlock()
	}
	if stall || cm.in == nil { // call runs synchronous composition inline
		cm.call(compMsg{in: in})
	} else {
		cm.send(compMsg{in: in})
	}
}

// call runs msg on the composer (inline under synchronous composition)
// and returns once it has been processed or the composer shut down.
func (cm *compositeMgr) call(msg compMsg) {
	if cm.in == nil {
		cm.process(msg)
		return
	}
	msg.ack = make(chan struct{})
	if cm.send(msg) {
		<-msg.ack
	}
}

// takeLocked returns the spare composer, or a new one when there is
// none; the caller holds cm.mu.
func (cm *compositeMgr) takeLocked() *algebra.Composer {
	cp := cm.spare
	cm.spare = nil
	if cp == nil {
		cp, _ = algebra.NewComposer(cm.decl) // DefineComposite validated decl
	}
	return cp
}

// send enqueues one message on the composer channel, counting the
// stall when the channel is full (back pressure that was previously
// invisible). It reports false when the composer shut down instead of
// accepting the message.
func (cm *compositeMgr) send(msg compMsg) bool {
	select {
	case cm.in <- msg:
	default:
		cm.engine.met.backpressure.Inc()
		select {
		case cm.in <- msg:
		case <-cm.closed:
			return false
		}
	}
	return true
}

// loop is the asynchronous composer goroutine.
func (cm *compositeMgr) loop() {
	for {
		select {
		case msg := <-cm.in:
			cm.process(msg)
		case <-cm.closed:
			return
		}
	}
}

// process runs one message against the composers and handles any
// completed composite instances.
func (cm *compositeMgr) process(msg compMsg) {
	if msg.ack != nil {
		defer close(msg.ack)
	}
	now := cm.engine.clk.Now()
	switch {
	case msg.in != nil:
		var completions []*event.Instance
		cm.mu.Lock()
		switch {
		case cm.global != nil:
			completions = cm.global.Feed(msg.in)
		case msg.in.Txn != 0:
			// Missing when the transaction ended (an abort from
			// another goroutine) while this delivery was queued.
			if tc, ok := cm.perTxn[msg.in.Txn]; ok {
				if tc.since == 0 {
					tc.since = msg.in.Seq
					cm.perTxn[msg.in.Txn] = tc
				}
				completions = tc.cp.Feed(msg.in)
			}
		default:
			// A temporal occurrence reaches every per-transaction
			// composition already under way when it was raised.
			for _, tc := range cm.perTxn {
				if tc.since != 0 && tc.since < msg.in.Seq {
					completions = append(completions, tc.cp.Feed(msg.in)...)
				}
			}
		}
		cm.mu.Unlock()
		// Feed's result belongs to this call: under synchronous
		// composition another raiser may feed the composer meanwhile.
		cm.finish(completions, msg.in, now)

	case msg.endTxn != 0:
		cm.mu.Lock()
		tc, ok := cm.perTxn[msg.endTxn]
		delete(cm.perTxn, msg.endTxn)
		cm.mu.Unlock()
		if !ok {
			return
		}
		cp := tc.cp
		if msg.discard {
			cm.engine.met.gced.Add(uint64(cp.Pending()))
			cp.Reset()
		} else {
			cm.finish(cp.Flush(now), nil, now)
		}
		// Flush and Reset leave the composer pinning nothing.
		cm.mu.Lock()
		if cm.spare == nil {
			cm.spare = cp
		}
		cm.mu.Unlock()
	}
}

// finish stamps completed composite instances with the lifecycle
// trace they belong to — the completing constituent's trace — records
// the compose stage, and hands them to the engine.
func (cm *compositeMgr) finish(completions []*event.Instance, from *event.Instance, start time.Time) {
	if len(completions) == 0 {
		return
	}
	e := cm.engine
	for _, comp := range completions {
		if comp.Trace == 0 && from != nil {
			comp.Trace = from.Trace
		}
		if comp.Trace == 0 || comp.Depth == 0 {
			inherit(comp)
		}
		e.span(comp.Trace, "compose", cm.decl.Name, start)
	}
	e.handleCompletions(cm, completions)
}

// inherit gives a composite without a trace the trace of its most
// recent traced constituent, so one trace follows the event from
// primitive detection through composition to rule execution, and one
// at depth 0 the depth of its deepest constituent: one rule-raised part
// makes the completion part of that rule's cascade.
func inherit(comp *event.Instance) {
	var trace uint64
	depth := 0
	comp.Leaves(func(p *event.Instance) bool {
		if p.Trace != 0 {
			trace = p.Trace
		}
		depth = max(depth, p.Depth)
		return true
	})
	if comp.Trace == 0 {
		comp.Trace = trace
	}
	if comp.Depth == 0 {
		comp.Depth = depth
	}
}

// handleCompletions routes detected composite occurrences: they are
// recorded in the composite manager's history, fire its rules, and
// propagate further into composites-of-composites.
func (e *Engine) handleCompletions(cm *compositeMgr, completions []*event.Instance) {
	for _, comp := range completions {
		e.met.composites.Inc()
		if comp.Seq == 0 {
			comp.Seq = e.seq.Add(1)
		}
		trigger := e.trigger(comp)
		p := e.planFor(cm.mgr.key)
		e.record(p.m, comp, trigger)
		// Errors from (unsafe) immediate composite rules have no
		// transaction to veto here; they surface on the rule txn.
		e.fireRules(p, comp, trigger, e.clk.Now())
		e.propagate(p, comp)
	}
}

// GCExpired garbage-collects semi-composed occurrences whose validity
// interval has lapsed across all global composers, returning the
// total dropped (§3.3, §6.3).
func (e *Engine) GCExpired() int {
	now := e.clk.Now()
	total := 0
	for _, cm := range e.compositeMgrs() {
		cm.mu.Lock()
		if cm.global != nil {
			total += cm.global.Expire(now)
		}
		cm.mu.Unlock()
	}
	e.met.gced.Add(uint64(total))
	return total
}

// SemiComposed reports the number of buffered semi-composed
// occurrences across all composers (for the life-span experiments).
func (e *Engine) SemiComposed() int {
	total := 0
	for _, cm := range e.compositeMgrs() {
		cm.mu.Lock()
		if cm.global != nil {
			total += cm.global.Pending()
		}
		for _, tc := range cm.perTxn {
			total += tc.cp.Pending()
		}
		cm.mu.Unlock()
	}
	return total
}

// DrainComposers blocks until every asynchronous composer has
// processed all events delivered so far.
func (e *Engine) DrainComposers() {
	for _, cm := range e.compositeMgrs() {
		cm.call(compMsg{})
	}
}

// compositeMgrs lists the defined composites' managers.
func (e *Engine) compositeMgrs() []*compositeMgr {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cms := make([]*compositeMgr, 0, len(e.composites))
	for _, cm := range e.composites {
		cms = append(cms, cm)
	}
	return cms
}

// Close shuts down the engine: temporal sources are disarmed, the
// supervised executor drains (refusing new detached spawns, waiting
// for in-flight rule transactions) and stops its workers, and the
// composer goroutines exit. The engine must not be used afterwards.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	e.stopTemporals()
	_ = e.Drain(context.Background())
	e.exec.shutdown()
	e.mu.Lock()
	for _, cm := range e.composites {
		close(cm.closed)
	}
	e.mu.Unlock()
}
