package eca

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic" //lint:allow rawatomics event sequence allocator, shutdown flag and copy-on-write snapshots, not metrics
	"time"

	"repro/internal/algebra"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/sentry"
	"repro/internal/txn"
)

// ExecStrategy selects how multiple rules fired together execute
// (§6.4): as an ordered ring-sequence or as parallel sibling
// subtransactions.
type ExecStrategy int

// Execution strategies.
const (
	// SequentialExec maps the rule set to an ordered firing sequence.
	SequentialExec ExecStrategy = iota
	// ParallelExec runs the rules as sibling subtransactions on
	// parallel goroutines.
	ParallelExec
)

// HistoryMode selects where event histories are kept (§6.3).
type HistoryMode int

// History modes.
const (
	// DistributedHistory keeps a local history per ECA-manager; a
	// background process consolidates the global history after the
	// transaction ends. This is the REACH design.
	DistributedHistory HistoryMode = iota
	// CentralHistory logs every occurrence into one global history at
	// detection time — the bottleneck the paper avoids; kept for the
	// comparison experiment.
	CentralHistory
)

// Options configure an Engine. Each field is set by an experiment, a
// reachd flag or the system assembly, or is one of the §6.4 ordering
// policies (DESIGN.md §5 lists them); the engine's other bounds are
// constants.
type Options struct {
	// SyncComposition feeds composers inline in the detecting call
	// instead of asynchronously on per-composite goroutines. The
	// default (false) is the paper's asynchronous design.
	SyncComposition bool
	// Exec selects sequential or parallel rule firing.
	Exec ExecStrategy
	// TieBreak orders equal-priority rules.
	TieBreak TieBreak
	// SimpleBeforeComplex additionally orders the deferred queue so
	// rules triggered by simple events fire before rules triggered by
	// composite events (the third deferred-ordering policy of §6.4).
	SimpleBeforeComplex bool
	// History selects distributed or central event histories.
	History HistoryMode
	// ComposerBuffer is the channel capacity of asynchronous
	// composers (default 1024).
	ComposerBuffer int
	// AllowUnsafeImmediateComposite admits the combination Table 1
	// rejects — immediate rules on single-transaction composite events
	// — by stalling every primitive event until the composers have
	// acknowledged that no immediately-coupled composite completed.
	// It exists so the cost the paper refuses to pay can be measured.
	AllowUnsafeImmediateComposite bool
	// Workers bounds the detached-rule worker pool (default 8 when
	// <= 0).
	Workers int
	// Queue bounds the pending detached-rule queue (default 256 when
	// <= 0). A full queue parks the raiser until a slot frees or, with
	// a governor installed, until the governor sheds the spawn.
	Queue int
	// Metrics is the shared observability registry the engine binds
	// its counters into; nil creates a private registry.
	Metrics *obs.Registry
	// SlowLogThreshold promotes traces whose end-to-end duration
	// crosses it out of the tracer's eviction ring into the slow log.
	// 0 disables promotion (it can be enabled later via the /slowlog
	// surface or the REPL).
	SlowLogThreshold time.Duration
}

// The engine's fixed bounds.
const (
	// localHistorySize bounds each manager's local history ring.
	localHistorySize = 256
	// globalHistorySize bounds the consolidated history.
	globalHistorySize = 4096
	// maxCascadeDepth is the hard ceiling on rule-cascade depth: an
	// event raised at this depth that would fire further rules trips
	// the cascade guard instead of recursing, queueing or spawning
	// unboundedly. A static bound installed via SetCascadeBound
	// lowers it.
	maxCascadeDepth = 64
	// slowLogCapacity bounds the slow log.
	slowLogCapacity = 64
)

func (o Options) withDefaults() Options {
	if o.ComposerBuffer == 0 {
		o.ComposerBuffer = 1024
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Queue <= 0 {
		o.Queue = 256
	}
	return o
}

// Stats are cumulative engine counters. They are a view over the
// engine's metric registry — the same numbers /metrics exposes.
type Stats struct {
	Events             uint64
	ImmediateFired     uint64
	DeferredFired      uint64
	DetachedFired      uint64
	CompositesDetected uint64
	SemiComposedGCed   uint64
	DeferredRounds     uint64
}

// engineMetrics are the engine's registry-bound handles, resolved
// once at construction so the hot paths touch only atomics.
type engineMetrics struct {
	events       *obs.Counter
	composites   *obs.Counter
	gced         *obs.Counter
	rounds       *obs.Counter
	backpressure *obs.Counter
	tracesShed   *obs.Counter

	firedImmediate *obs.Counter
	firedDeferred  *obs.Counter
	firedDetached  *obs.Counter
	latImmediate   *obs.Histogram
	latDeferred    *obs.Histogram
	latDetached    *obs.Histogram

	// Latency attribution: rule execution broken into its phases, and
	// how long deferred work sat queued before its EOT round.
	phaseCond     *obs.Histogram
	phaseAction   *obs.Histogram
	phaseCommit   *obs.Histogram
	phaseAbort    *obs.Histogram
	deferredDwell *obs.Histogram

	// cascade-depth guard series.
	cascadeTrips *obs.Counter
	cascadeHigh  *obs.Gauge

	// supervised-executor series.
	retries      *obs.Counter
	panics       *obs.Counter
	deadlines    *obs.Counter
	rejDraining  *obs.Counter
	rejBreaker   *obs.Counter
	breakerTrips *obs.Counter
	breakerOpen  *obs.Gauge
	deadLetters  *obs.Counter
	deadDepth    *obs.Gauge

	// overload-governor resource series: live accounting the governor
	// reads on its evaluation interval, plus the shed rejections.
	deferredDepth  *obs.Gauge
	execInflight   *obs.Gauge
	rejGovernor    *obs.Counter
	breakerEvicted *obs.Counter
	deadEvicted    *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	const fired = "reach_rules_fired_total"
	const firedHelp = "Rules fired, by coupling mode."
	const lat = "reach_rule_latency_seconds"
	const latHelp = "Rule execution latency of the rules run together (an occurrence's immediate rules, an EOT round of deferred rules, one detached firing), by coupling mode."
	const rejected = "reach_rule_rejected_total"
	const rejectedHelp = "Rule firings refused by the executor or shed by the governor, by reason."
	const phase = "reach_rule_phase_seconds"
	const phaseHelp = "Rule transaction time by phase (condition, action, commit, abort)."
	return engineMetrics{
		events: reg.Counter("reach_events_total", "Event instances consumed by the engine."),
		composites: reg.Counter("reach_composites_detected_total",
			"Composite event completions."),
		gced: reg.Counter("reach_semicomposed_gced_total",
			"Semi-composed occurrences discarded when their transaction ended or their validity lapsed."),
		rounds: reg.Counter("reach_deferred_rounds_total",
			"Deferred execution rounds run at EOT."),
		backpressure: reg.Counter("reach_composer_backpressure_total",
			"Deliveries that found a composer channel full and stalled."),
		tracesShed: reg.Counter("reach_traces_shed_total",
			"Lifecycle traces not minted because the overload governor reported degradation."),
		firedImmediate: reg.Counter(fired, firedHelp, "mode", "immediate"),
		firedDeferred:  reg.Counter(fired, firedHelp, "mode", "deferred"),
		firedDetached:  reg.Counter(fired, firedHelp, "mode", "detached"),
		latImmediate:   reg.Histogram(lat, latHelp, "mode", "immediate"),
		latDeferred:    reg.Histogram(lat, latHelp, "mode", "deferred"),
		latDetached:    reg.Histogram(lat, latHelp, "mode", "detached"),
		phaseCond:      reg.Histogram(phase, phaseHelp, "phase", "condition"),
		phaseAction:    reg.Histogram(phase, phaseHelp, "phase", "action"),
		phaseCommit:    reg.Histogram(phase, phaseHelp, "phase", "commit"),
		phaseAbort:     reg.Histogram(phase, phaseHelp, "phase", "abort"),
		deferredDwell: reg.Histogram("reach_deferred_dwell_seconds",
			"Time a deferred firing sat queued between detection and its EOT round."),
		cascadeTrips: reg.Counter("reach_rule_cascade_depth_trips_total",
			"Rule firings refused because the event's cascade depth reached the bound."),
		cascadeHigh: reg.Gauge("reach_rule_cascade_depth_highwater",
			"Deepest rule cascade that fired rules."),
		retries: reg.Counter("reach_rule_retries_total",
			"Detached rule attempts retried after a retriable abort."),
		panics: reg.Counter("reach_rule_panics_total",
			"Rule conditions/actions that panicked and were converted to aborts."),
		deadlines: reg.Counter("reach_rule_deadline_total",
			"Detached rule attempts aborted by the per-rule deadline."),
		rejDraining: reg.Counter(rejected, rejectedHelp, "reason", "draining"),
		rejBreaker:  reg.Counter(rejected, rejectedHelp, "reason", "breaker-open"),
		breakerTrips: reg.Counter("reach_rule_breaker_trips_total",
			"Circuit breakers tripped by consecutive permanent failures."),
		breakerOpen: reg.Gauge("reach_rule_breaker_open",
			"Rules currently parked behind an open circuit breaker."),
		deadLetters: reg.Counter("reach_rule_deadletter_total",
			"Detached firings recorded in the dead-letter queue."),
		deadDepth: reg.Gauge("reach_rule_deadletter_depth",
			"Current dead-letter queue depth."),
		deferredDepth: reg.Gauge("reach_deferred_queue_depth",
			"Deferred firings queued across all live transactions."),
		execInflight: reg.Gauge("reach_executor_inflight",
			"Accepted detached firings not yet finished (queued or running)."),
		rejGovernor: reg.Counter(rejected, rejectedHelp, "reason", "governor-shed"),
		breakerEvicted: reg.Counter("reach_rule_breaker_evicted_total",
			"Circuit-breaker records garbage-collected when their rule was unloaded."),
		deadEvicted: reg.Counter("reach_rule_deadletter_evicted_total",
			"Dead-letter entries garbage-collected when their rule was unloaded."),
	}
}

// Engine is the REACH rule engine: a registry of ECA managers wired
// into the sentry dispatcher and the transaction manager.
type Engine struct {
	db   *oodb.DB
	disp *sentry.Dispatcher
	clk  clock.Clock
	opts Options

	// mu is the registration lock: it guards managers, composites and
	// every manager's rules and composers.
	mu         sync.RWMutex
	managers   map[string]*Manager
	composites map[string]*compositeMgr
	ruleSeq    uint64

	// txnComposites lists the transaction-scoped composites, each after
	// every composite it is built from: EOT flushes them in this order.
	// Replaced, never mutated, under mu, and read without it: every
	// transaction's EOT and end load it.
	txnComposites atomic.Pointer[[]*compositeMgr]

	// plans is the published dispatch table, one plan per key with a
	// manager, replaced (copy-on-write) under mu by every registration
	// change, so a raise does one atomic load and one map read.
	plans atomic.Pointer[map[string]*plan]

	seq atomic.Uint64

	cascadeBound atomic.Int64 // static bound from rule-set analysis; 0 = none

	hist *historyRing

	exec   *executor
	closed atomic.Bool

	// gov, when installed, is the overload governor the shed points
	// (detached spawn, deferred drain) consult. Set once at wiring
	// time, before traffic, like the txn listener.
	gov *governor.Governor

	tempMu    sync.Mutex
	temporals map[*TemporalHandle]struct{}

	reg     *obs.Registry
	tracer  *obs.Tracer
	slowLog *obs.SlowLog
	met     engineMetrics
}

// traceCapacity is how many recent traces the engine's tracer retains.
const traceCapacity = 256

// New creates an engine over db, wires it as the database's event
// sink (through a sentry dispatcher) and as the transaction
// listener, and returns it.
func New(db *oodb.DB, opts Options) *Engine {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := obs.NewTracer(traceCapacity)
	e := &Engine{
		db:         db,
		clk:        db.Clock(),
		opts:       opts,
		managers:   make(map[string]*Manager),
		composites: make(map[string]*compositeMgr),
		hist:       newHistoryRing(globalHistorySize),
		temporals:  make(map[*TemporalHandle]struct{}),
		reg:        reg,
		tracer:     tracer,
		met:        newEngineMetrics(reg),
	}
	e.plans.Store(&map[string]*plan{})
	e.slowLog = obs.NewSlowLog(slowLogCapacity, opts.SlowLogThreshold)
	e.slowLog.Instrument(reg)
	tracer.SetSlowLog(e.slowLog)
	e.exec = newExecutor(e)
	e.disp = sentry.New(sentry.ConsumerFunc(e.Consume))
	e.disp.Instrument(reg)
	db.TxnManager().Instrument(reg)
	db.TxnManager().SetTracer(tracer)
	db.SetSink(e.disp)
	db.TxnManager().SetListener((*txnListener)(e))
	return e
}

// Metrics exposes the engine's metric registry — the one shared with
// the sentry dispatcher and the transaction manager.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// SetGovernor installs the overload governor the engine's shed points
// consult: detached spawns are shed from the degraded state, deferred
// batches from shedding. Call it at wiring time, before traffic; nil
// (the default) sheds nothing. Immediate-coupled rules are never
// routed through the governor — they run inside the triggering
// transaction and abort with it (Table 1), so shedding them would
// silently change transaction semantics.
func (e *Engine) SetGovernor(g *governor.Governor) { e.gov = g }

// shedTraces reports whether trace minting is currently shed: the
// governor's lightest degradation, taken from the degraded state on.
func (e *Engine) shedTraces() bool {
	return e.gov.State() >= governor.Degraded
}

// DeferredDepth reports deferred firings queued across all live
// transactions — a governor resource.
func (e *Engine) DeferredDepth() int64 { return e.met.deferredDepth.Value() }

// DetachedBacklog reports accepted detached firings not yet finished
// (queued or running) — a governor resource.
func (e *Engine) DetachedBacklog() int64 { return e.met.execInflight.Value() }

// DetachedQueue reports the detached-rule queue's capacity after
// defaults.
func (e *Engine) DetachedQueue() int64 { return int64(e.opts.Queue) }

// DeadLetterDepth reports the current dead-letter queue depth — a
// governor resource.
func (e *Engine) DeadLetterDepth() int64 { return e.met.deadDepth.Value() }

// EvictedCounts reports how many breaker records and dead-letter
// entries rule unload/replace garbage-collected (the /rules/* GC
// surface).
func (e *Engine) EvictedCounts() (breakers, deadLetters uint64) {
	return e.met.breakerEvicted.Value(), e.met.deadEvicted.Value()
}

// Tracer exposes the engine's event-lifecycle tracer.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// SlowLog exposes the slow-transaction log attached to the tracer.
func (e *Engine) SlowLog() *obs.SlowLog { return e.slowLog }

// after returns the clock's now as from plus the time elapsed since
// from: on a Real clock a monotonic read instead of a wall read, so
// every instant after an occurrence's Time is derived from it.
func (e *Engine) after(from time.Time) time.Time {
	return from.Add(e.clk.Since(from))
}

// span records one lifecycle stage, ending now, on a trace; a zero
// trace ID is a no-op so untraced paths stay free.
func (e *Engine) span(traceID uint64, stage, key string, start time.Time) {
	if traceID == 0 {
		return
	}
	e.tracer.Span(traceID, stage, key, start, e.clk.Since(start))
}

// spanBuf gathers what a rule set's firings record, so that it is
// published once per set rather than once per firing: the spans reach
// the tracer in one call per trace (one stripe lock per raise), the
// phase durations the phase and dwell histograms in one batch each
// (one atomic add per touched bucket). It lives on the stack of the
// goroutine running the set, which flushes it when the set is done.
type spanBuf struct {
	e     *Engine
	trace uint64
	n     int
	buf   [24]obs.Span

	cond, action, commit, abort, dwell obs.Batch
}

// add queues spans for trace, handing the queued ones over first when
// the trace changes or the buffer is full.
func (b *spanBuf) add(trace uint64, spans ...obs.Span) {
	if trace != b.trace || b.n+len(spans) > len(b.buf) {
		b.flushSpans()
		b.trace = trace
	}
	b.n += copy(b.buf[b.n:], spans)
}

// flushSpans hands the queued spans to the tracer.
func (b *spanBuf) flushSpans() {
	b.e.tracer.Spans(b.trace, b.buf[:b.n]...)
	b.n = 0
}

// flush hands the queued spans to the tracer and publishes the phase
// and dwell batches.
func (b *spanBuf) flush() {
	b.flushSpans()
	met := &b.e.met
	b.cond.Flush(met.phaseCond)
	b.action.Flush(met.phaseAction)
	b.commit.Flush(met.phaseCommit)
	b.abort.Flush(met.phaseAbort)
	b.dwell.Flush(met.deferredDwell)
}

// firing times one rule execution. Each phase boundary is the previous
// one plus the clock's Since — the end of the condition is the start of
// the action, the end of one firing the start of the next in its
// sequence, so a firing's first phase includes setting its
// subtransaction up — and the phases go to the set's span buffer: the
// durations as they close, the spans when the firing resolves. The
// buffer is passed in rather than kept here: the firing's boundary
// leaves the stack with a deferred action's queue entry, and would take
// a buffer field along.
type firing struct {
	e     *Engine
	rule  string
	trace uint64
	last  time.Time   // the latest boundary
	spans [3]obs.Span // condition, action, commit or abort
	n     int
}

// phase closes the phase that began at the previous boundary, adding
// its duration to b.
func (f *firing) phase(stage string, b *obs.Batch) {
	d := f.e.clk.Since(f.last)
	b.Observe(d)
	f.spans[f.n] = obs.Span{Stage: stage, Key: f.rule, Start: f.last, Dur: d}
	f.n++
	f.last = f.last.Add(d)
}

// commit commits the rule transaction as the firing's last phase.
func (f *firing) commit(t *txn.Txn, sb *spanBuf) error {
	err := t.Commit()
	f.phase("commit", &sb.commit)
	return err
}

// abort aborts the rule transaction with cause as the firing's last
// phase.
func (f *firing) abort(t *txn.Txn, cause error, sb *spanBuf) {
	_ = t.AbortWith(cause) // cause is already the reported failure
	f.phase("abort", &sb.abort)
}

// finish queues the firing's phases for the triggering event's trace
// and moves mark, the boundary the firing started at, to its end.
func (f *firing) finish(mark *time.Time, sb *spanBuf) {
	*mark = f.last
	sb.add(f.trace, f.spans[:f.n]...)
}

// Dispatcher exposes the sentry dispatcher (for overhead stats and
// enable/disable).
func (e *Engine) Dispatcher() *sentry.Dispatcher { return e.disp }

// DB returns the underlying database.
func (e *Engine) DB() *oodb.DB { return e.db }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Events:             e.met.events.Value(),
		ImmediateFired:     e.met.firedImmediate.Value(),
		DeferredFired:      e.met.firedDeferred.Value(),
		DetachedFired:      e.met.firedDetached.Value(),
		CompositesDetected: e.met.composites.Value(),
		SemiComposedGCed:   e.met.gced.Value(),
		DeferredRounds:     e.met.rounds.Value(),
	}
}

// Manager is an ECA-manager: it is dedicated to one event type, knows
// the set of rules fired by the event and the composite events the
// event participates in, and keeps a local history of occurrences
// (§6.3, Figure 2).
type Manager struct {
	key   string
	local *historyRing
	// rules, in firing order, and composers are what the key's plan is
	// built from; Engine.mu guards them.
	rules     []*Rule
	composers []*compositeMgr
	// sets are the free lists of the firing sets the manager's rules
	// run in (firingset.go).
	sets firingSets
}

// LocalHistory returns the manager's local event history, oldest
// first. The ring synchronizes itself.
func (m *Manager) LocalHistory() []HistoryEntry {
	return m.local.entries()
}

// plan is the dispatch plan of one event key: everything a raise needs
// that changes only when a rule or composite is registered, resolved
// then rather than on every raise. Plans are immutable.
type plan struct {
	m *Manager
	// The enabled rules by condition coupling, each in firing order.
	immediate, deferred, detached []*Rule
	// feeds are the composite managers the event propagates to.
	feeds []feed
}

// feed is one composite manager a plan propagates to. stall is set when
// the composite has an enabled immediate rule (admitted only under
// AllowUnsafeImmediateComposite): the raiser then waits until the
// composer has processed the occurrence — the stall Table 1's "(N)"
// refuses.
type feed struct {
	cm    *compositeMgr
	stall bool
}

// planFor returns the published plan for key, nil when no rule or
// composite involves the key.
func (e *Engine) planFor(key string) *plan { return (*e.plans.Load())[key] }

// managerLocked returns (creating if needed) the ECA-manager for a
// key; the caller holds e.mu and republishes the key's plan.
func (e *Engine) managerLocked(key string) *Manager {
	if m, ok := e.managers[key]; ok {
		return m
	}
	m := &Manager{key: key, local: newHistoryRing(localHistorySize)}
	e.managers[key] = m
	return m
}

// republishLocked rebuilds the plan of key and, when key is a composite,
// the plans of its constituents, whose stall flags follow its immediate
// rules; then it publishes the new table. The caller holds e.mu.
func (e *Engine) republishLocked(key string) {
	keys := []string{key}
	if cm := e.composites[key]; cm != nil {
		keys = append(keys, algebra.PrimitiveKeys(cm.decl.Expr)...)
	}
	plans := maps.Clone(*e.plans.Load())
	for _, k := range keys {
		if m := e.managers[k]; m != nil {
			plans[k] = e.planLocked(m)
		}
	}
	e.plans.Store(&plans)
}

// planLocked builds m's plan; the caller holds e.mu.
func (e *Engine) planLocked(m *Manager) *plan {
	p := &plan{m: m}
	for _, r := range m.rules {
		if r.Disabled {
			continue
		}
		switch r.condMode() {
		case Immediate:
			p.immediate = append(p.immediate, r)
		case Deferred:
			p.deferred = append(p.deferred, r)
		default:
			p.detached = append(p.detached, r)
		}
	}
	for _, cm := range m.composers {
		stall := slices.ContainsFunc(cm.mgr.rules, func(r *Rule) bool {
			return !r.Disabled && r.condMode() == Immediate
		})
		p.feeds = append(p.feeds, feed{cm: cm, stall: stall})
	}
	return p
}

// kindOfKey derives the event kind from a spec key prefix.
func kindOfKey(key string) event.Kind {
	switch {
	case len(key) >= 7 && key[:7] == "method:":
		return event.KindMethod
	case len(key) >= 6 && key[:6] == "state:":
		return event.KindState
	case len(key) >= 4 && key[:4] == "txn:":
		return event.KindTxn
	case len(key) >= 5 && key[:5] == "time:":
		return event.KindTemporal
	case len(key) >= 10 && key[:10] == "composite:":
		return event.KindComposite
	}
	return event.KindMethod
}

// categoryOf resolves the admission category of a spec key, consulting
// the composite registry for scope.
func (e *Engine) categoryOf(key string) (Category, error) {
	kind := kindOfKey(key)
	if kind != event.KindComposite {
		return CategoryOfKey(kind, false), nil
	}
	e.mu.RLock()
	cm := e.composites[key]
	e.mu.RUnlock()
	if cm == nil {
		return 0, fmt.Errorf("eca: composite event %q not defined", key)
	}
	return CategoryOfKey(kind, cm.decl.Scope == algebra.ScopeGlobal), nil
}

// AddRule registers a rule after validating it against Table 1.
func (e *Engine) AddRule(r *Rule) error {
	if err := r.validate(); err != nil {
		return err
	}
	cat, err := e.categoryOf(r.EventKey)
	if err != nil {
		return err
	}
	for _, mode := range []Coupling{r.condMode(), r.ActionMode} {
		if Supported(cat, mode) {
			continue
		}
		if mode == Immediate && cat == CompositeSingleTxn && e.opts.AllowUnsafeImmediateComposite {
			continue // measured, not endorsed (E5)
		}
		return fmt.Errorf("eca: rule %s: coupling %v not supported for %v events (Table 1)",
			r.Name, mode, cat)
	}
	e.mu.Lock()
	e.ruleSeq++
	r.regSeq = e.ruleSeq
	r.regTime = e.clk.Now()
	m := e.managerLocked(r.EventKey)
	m.rules = append(m.rules, r)
	tb := e.opts.TieBreak
	slices.SortStableFunc(m.rules, func(a, b *Rule) int { return ruleCompare(a, b, tb) })
	e.republishLocked(r.EventKey)
	e.mu.Unlock()

	// Subscribe the sentry so the database starts delivering.
	if k := kindOfKey(r.EventKey); k == event.KindMethod || k == event.KindState {
		e.disp.Subscribe(r.EventKey)
	}
	return nil
}

// RemoveRule unregisters a rule by name from its event's manager. Once
// it returns, no raise fires the rule. The sentry unsubscription runs
// after the registration lock is released: the dispatcher takes its
// own lock, which must not nest inside ours (lockdiscipline).
func (e *Engine) RemoveRule(eventKey, name string) bool {
	e.mu.Lock()
	found := false
	if m := e.managers[eventKey]; m != nil {
		if i := slices.IndexFunc(m.rules, func(r *Rule) bool { return r.Name == name }); i >= 0 {
			m.rules = slices.Delete(m.rules, i, i+1)
			e.republishLocked(eventKey)
			found = true
		}
	}
	e.mu.Unlock()
	if !found {
		return false
	}
	// GC the executor state keyed by the rule's name: its breaker
	// record and dead letters would otherwise accumulate forever in a
	// long-lived process with rule churn — and a replacement rule
	// registered under the same name must not inherit its
	// predecessor's failure streak.
	e.exec.evictRule(name)
	if k := kindOfKey(eventKey); k == event.KindMethod || k == event.KindState {
		e.disp.Unsubscribe(eventKey)
	}
	return true
}

// ErrCascadeDepth aborts an operation whose event reached the cascade
// depth bound while further rules were still primed to fire. Without
// the guard an unterminating rule set recurses (immediate coupling) or
// spawns transactions (detached) until the process dies.
var ErrCascadeDepth = errors.New("eca: rule cascade depth bound reached")

// SetCascadeBound installs the static cascade-depth bound computed by
// whole-ruleset analysis: the longest rule chain a single external
// event can fire. The effective guard limit is the lower of this bound
// and the ceiling of 64. n <= 0 clears the static bound, leaving only
// the ceiling.
func (e *Engine) SetCascadeBound(n int) {
	e.cascadeBound.Store(int64(max(n, 0)))
}

// CascadeBound returns the installed static bound (0 when none).
func (e *Engine) CascadeBound() int { return int(e.cascadeBound.Load()) }

// cascadeLimit resolves the effective depth limit: the lower of the
// static bound and the ceiling.
func (e *Engine) cascadeLimit() int {
	if bound := e.CascadeBound(); bound > 0 {
		return min(bound, maxCascadeDepth)
	}
	return maxCascadeDepth
}

// trigger resolves the live transaction an instance was raised in: a
// primitive's Origin, which may be a rule subtransaction; for a
// single-transaction composite, the top-level transaction of its first
// constituent with an Origin, or nil once that transaction resolved.
func (e *Engine) trigger(in *event.Instance) *txn.Txn {
	if len(in.Parts) == 0 {
		t, _ := in.Origin.(*txn.Txn)
		return t
	}
	if in.Txn == 0 {
		return nil // multi-transaction or purely temporal
	}
	var top *txn.Txn
	triggers(in, func(t *txn.Txn) bool {
		top = t
		return false
	})
	if top == nil || top.Status() != txn.Active {
		return nil
	}
	return top
}

// Consume is the entry point from the sentry dispatcher: one primitive
// event instance arrives, rules fire per coupling mode, and the event
// is propagated to the composite ECA-managers (Figure 2). The return
// value is the go-ahead signal: an error from an immediate rule vetoes
// the operation.
func (e *Engine) Consume(in *event.Instance) error {
	e.stamp(in)
	p := e.planFor(in.SpecKey)
	if p == nil {
		return nil
	}
	t := e.trigger(in)
	return e.dispatch(p, in, t, t)
}

// stamp counts an arriving occurrence and gives it its place in the
// global occurrence order.
func (e *Engine) stamp(in *event.Instance) {
	e.met.events.Inc()
	if in.Seq == 0 {
		in.Seq = e.seq.Add(1)
	}
	if in.Time.IsZero() {
		in.Time = e.clk.Now()
	}
}

// dispatch runs the Figure-2 path for a stamped occurrence. trigger
// is the live transaction its rules couple to; owner the transaction
// whose history takes it — the same, except for commit and abort
// events, which are raised once their transaction has resolved.
func (e *Engine) dispatch(p *plan, in *event.Instance, trigger, owner *txn.Txn) error {
	start := e.after(in.Time)
	// Every occurrence — method and state events forwarded by the
	// sentry, flow-control and temporal events raised by the engine —
	// gets its lifecycle trace here and nowhere else, starting when the
	// event occurred. Under overload the mint is skipped and counted:
	// observability is shed before work is.
	if in.Trace == 0 {
		if e.shedTraces() {
			e.met.tracesShed.Inc()
		} else {
			in.Trace = e.tracer.Begin(in.SpecKey, in.Time)
		}
	}
	e.record(p.m, in, owner)
	if in.Depth == 0 && trigger != nil {
		// Events raised inside a rule transaction inherit the depth the
		// executing rule stamped on it; application events stay at 0.
		in.Depth = int(trigger.Tag())
	}
	err := e.fireRules(p, in, trigger, start)
	e.propagate(p, in)
	e.span(in.Trace, "detect", in.SpecKey, start)
	return err
}

// record appends the occurrence to the appropriate history (§6.3): in
// distributed mode the manager's local ring and, for the hand-off at
// the end of the transaction, the list on owner's top-level. An
// occurrence recorded once that transaction ended (its state serves
// another one, or none) stays in the local ring.
func (e *Engine) record(m *Manager, in *event.Instance, owner *txn.Txn) {
	entry := HistoryEntry{Seq: in.Seq, Txn: in.Txn, Key: in.SpecKey, Time: in.Time}
	if e.opts.History == CentralHistory {
		e.hist.append(entry)
		return
	}
	m.local.append(entry)
	if owner == nil {
		return
	}
	top := owner.Top()
	st := ensureTxnState(top)
	st.mu.Lock()
	if st.owner == top {
		// Only the newest globalHistorySize occurrences can survive the
		// hand-off; a transaction raising more keeps memory bounded by
		// shedding the older half now.
		if len(st.hist) >= 2*globalHistorySize {
			st.hist = st.hist[:copy(st.hist, st.hist[len(st.hist)-globalHistorySize:])]
		}
		st.hist = append(st.hist, entry)
	}
	st.mu.Unlock()
}

// fireRules runs the plan's rules for one occurrence, routing each
// to its coupling mode. Immediate rules run inline (the caller is
// stalled — this is exactly why composite events may not couple
// immediately); deferred rules are queued on the triggering top-level
// transaction; detached rules spawn.
func (e *Engine) fireRules(p *plan, in *event.Instance, trigger *txn.Txn, start time.Time) error {
	enabled := len(p.immediate) + len(p.deferred) + len(p.detached)
	if enabled == 0 {
		return nil
	}
	// The cascade-depth guard: an event this deep may not fire further
	// rules. It trips only when rules would actually fire, so deep but
	// inert events pass through, and it vetoes before any coupling mode
	// has enqueued or spawned work.
	if limit := e.cascadeLimit(); in.Depth >= limit {
		e.met.cascadeTrips.Inc()
		e.span(in.Trace, "cascade-depth", in.SpecKey, e.after(start))
		return fmt.Errorf("eca: event %s at cascade depth %d would fire %d rule(s) past the bound %d: %w",
			in.SpecKey, in.Depth, enabled, limit, ErrCascadeDepth)
	}
	e.met.cascadeHigh.SetMax(int64(in.Depth))
	for _, r := range p.deferred {
		if trigger == nil {
			return fmt.Errorf("eca: rule %s: deferred coupling but no active transaction", r.Name)
		}
		if err := e.enqueueDeferred(trigger.Top(), r, in, start, false); err != nil {
			return err
		}
	}
	for _, r := range p.detached {
		e.spawnDetached(r, in)
	}
	if len(p.immediate) == 0 {
		return nil
	}
	set := p.m.sets.take(len(p.immediate))
	for i, r := range p.immediate {
		set[i].rule, set[i].in = r, in
	}
	mark := start
	ran, err := e.fireSet(trigger, set, &mark)
	p.m.sets.release(trigger, set)
	e.met.firedImmediate.Add(uint64(ran))
	e.met.latImmediate.Observe(mark.Sub(start))
	return err
}

// fireSet runs a set of firings, each in a transaction of its own
// begun in firing order (§6.4): a subtransaction of trigger, or a fresh
// rule transaction when there is none. Under ParallelExec the
// subtransactions of a set of two or more run as siblings on their own
// goroutines and every firing runs; otherwise they run in order on the
// caller's goroutine and the first error ends the set. ran counts the
// firings that began their transaction. mark is the instant the set
// starts at; it is moved to the instant the set is done.
func (e *Engine) fireSet(trigger *txn.Txn, set []ruleFiring, mark *time.Time) (ran int, err error) {
	if e.opts.Exec == ParallelExec && len(set) > 1 && trigger != nil {
		// Siblings run on their own goroutines, not the detached pool: a
		// detached rule may wait on a lock the trigger holds, so sharing
		// the pool could deadlock the trigger's EOT.
		// Every sibling is begun before any runs. A begin fails only once
		// the trigger is no longer active, so the begun ones are a prefix.
		for ; ran < len(set); ran++ {
			if _, err = e.ruleTxn(trigger, &set[ran]); err != nil {
				break
			}
		}
		var mu sync.Mutex // guards failed
		var wg sync.WaitGroup
		failed := err
		wg.Add(ran)
		for i := range set[:ran] {
			go func(rf *ruleFiring, begun time.Time) {
				defer wg.Done()
				sb := spanBuf{e: e}
				ferr := e.fire(context.Background(), &rf.sub, &rf.queued, &rf.rc, &sb, &begun)
				sb.flush()
				if ferr != nil {
					mu.Lock()
					failed = errors.Join(failed, ferr)
					mu.Unlock()
				}
			}(&set[i], *mark)
		}
		wg.Wait()
		*mark = e.after(*mark)
		return ran, failed
	}
	sb := spanBuf{e: e}
	defer sb.flush()
	for i := range set {
		rf := &set[i]
		t, err := e.ruleTxn(trigger, rf)
		if err != nil {
			return i, err
		}
		if err := e.fire(context.Background(), t, &rf.queued, &rf.rc, &sb, mark); err != nil {
			return i + 1, err
		}
	}
	return len(set), nil
}

// ruleTxn begins the transaction rf runs in: its subtransaction of
// trigger, or a fresh rule transaction when trigger is nil (e.g. rules
// on commit and abort events).
func (e *Engine) ruleTxn(trigger *txn.Txn, rf *ruleFiring) (*txn.Txn, error) {
	if trigger == nil {
		return e.beginRuleTxn(), nil
	}
	if err := trigger.BeginChildIn(&rf.sub); err != nil {
		return nil, fmt.Errorf("eca: rule %s: %w", rf.rule.Name, err)
	}
	return &rf.sub, nil
}

// ruleTxnTag marks the top-level transactions the engine itself
// creates to execute rules, until the rule run stamps its cascade
// depth: a transaction's tag is 0 when the application began it, and
// otherwise the depth of the events its rule body raises. Rule
// transactions are full transactions, but they do not raise
// flow-control events — otherwise a rule on txn:commit would re-fire
// on its own rule transaction's commit, forever.
const ruleTxnTag = 1

// beginRuleTxn starts a top-level transaction for detached rule
// execution.
func (e *Engine) beginRuleTxn() *txn.Txn {
	return e.db.TxnManager().BeginTagged(ruleTxnTag)
}

// isRuleTxn reports whether t was created by the engine.
func isRuleTxn(t *txn.Txn) bool { return t.Tag() != 0 }

// fire runs one firing of q.rule in t and resolves t: the condition,
// unless it already held (imm/def split); then the action, or, for a
// rule coupling its condition immediately and its action deferred, the
// queueing of the action for EOT; then t commits, or aborts with the
// error the firing returns. t carries the triggering event's trace, so
// the lock manager and commit path attribute their waits to it, and the
// cascade depth the events raised by the rule body take. rc is the
// body's context, ctx reaches it as RuleCtx.Context. mark is the
// instant the firing starts at, moved to the instant it ends at so the
// next firing in a sequence starts there (see firing); the phases go
// to sb.
//
// This is the one place a rule body's panic is recovered, whatever the
// coupling mode: the panic aborts t, is counted, leaves its stack on
// the trigger's trace and becomes the firing's error.
func (e *Engine) fire(ctx context.Context, t *txn.Txn, q *queued, rc *RuleCtx, sb *spanBuf, mark *time.Time) (err error) {
	r, in := q.rule, q.in
	t.SetTrace(in.Trace)
	t.SetTag(int32(in.Depth + 1))
	*rc = RuleCtx{Engine: e, DB: e.db, Txn: t, Trigger: in, Context: ctx, ctx: oodb.Ctx{DB: e.db, Txn: t}}
	f := firing{e: e, rule: r.Name, trace: in.Trace, last: *mark}
	if !q.at.IsZero() {
		// A deferred firing's queue wait: from its enqueue, during the
		// transaction, to its dequeue at EOT.
		dwell := f.last.Sub(q.at)
		sb.dwell.Observe(dwell)
		sb.add(in.Trace, obs.Span{Stage: "enqueue-deferred", Key: r.Name, Start: q.at, Dur: dwell})
	}
	defer f.finish(mark, sb)
	defer func() {
		if p := recover(); p != nil {
			err = e.rulePanic(r, in, p)
			f.abort(t, err, sb)
		}
	}()
	if !q.actionOnly {
		ok := true
		if r.Cond != nil {
			var cerr error
			ok, cerr = r.Cond(rc)
			f.phase("condition-eval", &sb.cond)
			if cerr != nil {
				f.abort(t, cerr, sb)
				return fmt.Errorf("eca: rule %s condition: %w", r.Name, cerr)
			}
		}
		if !ok {
			return f.commit(t, sb) // condition false: nothing to do
		}
		if r.condMode() == Immediate && r.ActionMode == Deferred {
			top := t.Top()
			if top == t {
				// A rule transaction of its own (no trigger): its EOT, which
				// the commit runs, is where the action belongs. Queued after
				// the commit, the action would reach the state t's end
				// handed on.
				if err := e.enqueueDeferred(top, r, in, f.last, true); err != nil {
					f.abort(t, err, sb)
					return err
				}
				return f.commit(t, sb)
			}
			if err := f.commit(t, sb); err != nil {
				return err
			}
			return e.enqueueDeferred(top, r, in, f.last, true)
		}
	}
	aerr := r.Action(rc)
	f.phase("action-exec", &sb.action)
	if aerr != nil {
		f.abort(t, aerr, sb)
		return fmt.Errorf("eca: rule %s action: %w", r.Name, aerr)
	}
	return f.commit(t, sb)
}

// rulePanic turns a recovered rule-body panic into the firing's error,
// counting it and recording the stack on the trigger's trace.
func (e *Engine) rulePanic(r *Rule, in *event.Instance, p any) error {
	e.met.panics.Inc()
	e.tracer.Span(in.Trace, "panic", r.Name+": "+stackSnippet(debug.Stack()), e.clk.Now(), 0)
	return fmt.Errorf("eca: rule %s panicked: %v", r.Name, p)
}

// stackSnippet truncates a panic stack to a trace-ring-friendly size.
func stackSnippet(stack []byte) string {
	const max = 640
	if len(stack) > max {
		stack = stack[:max]
	}
	return string(stack)
}
