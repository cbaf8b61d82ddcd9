// Package governor implements the system-wide overload governor: one
// place that accounts the resources every subsystem consumes, derives
// a health state from configurable watermarks, and enforces it at the
// engine's choke points.
//
// The paper's central risk in integrating active behaviour into the
// transaction kernel is that cascading rule firings turn one client
// request into unbounded internal work. Cascade *depth* is bounded by
// the rule-set analysis and the engine's depth guard; nothing bounds
// aggregate *load*. Every robustness layer in this tree (failpoints,
// crash matrix, supervised executor, fuzzy checkpoints) protects a
// single subsystem; the governor protects the whole: under sustained
// overload the system degrades in a fixed priority order — shed
// observability and detached firings first, then deferred batches,
// then new writers — instead of OOMing or convoying, and it recovers
// on its own when load drops.
//
// The health ladder:
//
//	healthy    everything runs
//	degraded   detached rule firings are shed (dead-lettered), trace
//	           minting stops; admitted work is untouched
//	shedding   deferred batches are additionally shed at EOT; new
//	           writers queue up to the admission deadline, then are
//	           rejected with ErrOverloaded
//	read-only  new writers are rejected immediately; reads and
//	           already-admitted transactions still complete
//
// Immediate-coupled rules are NEVER shed: they run inside the
// triggering transaction and abort with it (paper §3.2) — shedding
// them would silently change transaction semantics, which is exactly
// what a constraint-enforcing rule must not allow.
//
// Transitions to a worse state are immediate; transitions back are
// held for a hysteresis window so the system does not flap at a
// watermark boundary.
package governor

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic" //lint:allow rawatomics shutdown flag read by every admission, not a metric
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// State is a rung on the governor's health ladder. Ordering is
// significant: a larger State is a sicker system.
type State int

// Health states, healthiest first.
const (
	Healthy State = iota
	Degraded
	Shedding
	ReadOnly
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Shedding:
		return "shedding"
	case ReadOnly:
		return "read-only"
	}
	return "unknown"
}

// Errors returned by admission control.
var (
	// ErrOverloaded rejects a new writer under overload. It is the
	// client retry contract: back off and try again — the condition is
	// load, not a fault in the request.
	ErrOverloaded = errors.New("governor: system overloaded, retry with backoff")
	// ErrShutdown rejects new admissions once BeginShutdown was called.
	// Unlike ErrOverloaded it is permanent: the process is going away.
	ErrShutdown = errors.New("governor: shutting down, no new transactions")
)

// Class is a sheddable work class, in shed-priority order: detached
// firings go first (independent top-level transactions whose loss is
// recorded in the dead-letter queue), deferred batches second (their
// triggering transaction still commits), new writers last. Immediate
// rules are not a class — they are never shed.
type Class int

// Shed classes, first-shed first.
const (
	ClassDetached Class = iota
	ClassDeferred
	ClassWriter
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassDetached:
		return "detached"
	case ClassDeferred:
		return "deferred"
	case ClassWriter:
		return "writer"
	}
	return "unknown"
}

// Levels are the watermarks of one resource: reaching a level pushes
// the system into (at least) that state. A zero level disables that
// transition for the resource — a resource registered with all-zero
// Levels is accounted and surfaced but never drives the state.
type Levels struct {
	Degraded int64 `json:"degraded,omitempty"`
	Shedding int64 `json:"shedding,omitempty"`
	ReadOnly int64 `json:"read_only,omitempty"`
}

// stateOf maps a resource value to the state its watermarks demand.
func (l Levels) stateOf(v int64) State {
	switch {
	case l.ReadOnly > 0 && v >= l.ReadOnly:
		return ReadOnly
	case l.Shedding > 0 && v >= l.Shedding:
		return Shedding
	case l.Degraded > 0 && v >= l.Degraded:
		return Degraded
	}
	return Healthy
}

// Options configure a Governor.
type Options struct {
	// Hysteresis is how long the raw (watermark-derived) state must
	// hold below the current state before the governor steps down.
	// Worsening is immediate; recovery is damped. Zero selects 2s.
	Hysteresis time.Duration
	// AdmitDeadline bounds how long a new writer queues while the
	// system sheds before it is rejected with ErrOverloaded. Zero
	// selects 250ms; negative rejects immediately.
	AdmitDeadline time.Duration
	// Interval paces the background evaluation loop. Zero selects
	// 100ms.
	Interval time.Duration
	// Clock paces the loop, the hysteresis window, and the admission
	// deadline; nil selects the real clock.
	Clock clock.Clock
	// Metrics binds the governor's health gauge, transition counters,
	// and shed counters into a shared registry; nil creates a private
	// registry.
	Metrics *obs.Registry
	// Disabled turns the governor into a pass-through: always healthy,
	// every admission granted, nothing shed. The ablation arm of the
	// overload experiments — it demonstrates the failure the governor
	// prevents.
	Disabled bool
}

func (o Options) withDefaults() Options {
	if o.Hysteresis == 0 {
		o.Hysteresis = 2 * time.Second
	}
	if o.AdmitDeadline == 0 {
		o.AdmitDeadline = 250 * time.Millisecond
	}
	if o.AdmitDeadline < 0 {
		o.AdmitDeadline = 0
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	return o
}

// resource is one registered gauge with its watermarks.
type resource struct {
	name   string
	read   func() int64
	levels Levels
}

// Governor is the system-wide overload governor. Subsystems register
// cheap gauge readers; the evaluation loop derives the health state;
// the choke points (transaction admission, detached spawn, deferred
// drain) consult it. The hot-path read — State — is one atomic load.
type Governor struct {
	opts Options
	clk  clock.Clock

	// stateG holds the current State as an atomic gauge: the single
	// source of truth for hot-path reads and the /metrics surface.
	stateG      *obs.Gauge
	transitions [4]*obs.Counter
	sheds       [3]*obs.Counter

	mu          sync.Mutex
	resources   []resource
	state       State
	betterSince time.Time // start of the current below-state streak
	// shutdown is written under mu and read without it: AdmitTxn's
	// fast path reads it and stateG, and writes no shared line.
	shutdown atomic.Bool
	// waiters is closed and replaced on every state change or
	// shutdown, broadcasting to writers parked in AdmitTxn.
	waiters chan struct{}

	loopStop chan struct{}
	loopDone chan struct{}
}

// New returns a governor. Call Register for each resource, then Start
// to run the evaluation loop.
func New(opts Options) *Governor {
	opts = opts.withDefaults()
	g := &Governor{
		opts:    opts,
		clk:     opts.Clock,
		waiters: make(chan struct{}),
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g.stateG = reg.Gauge("reach_governor_state",
		"Overload governor health state (0 healthy, 1 degraded, 2 shedding, 3 read-only).")
	const tr, trHelp = "reach_governor_transitions_total",
		"Governor health-state transitions, by destination state."
	const sh, shHelp = "reach_governor_shed_total",
		"Work shed by the governor, by class (detached firing, deferred batch entry, writer admission)."
	for s := Healthy; s <= ReadOnly; s++ {
		g.transitions[s] = reg.Counter(tr, trHelp, "to", s.String())
	}
	for c := ClassDetached; c <= ClassWriter; c++ {
		g.sheds[c] = reg.Counter(sh, shHelp, "class", c.String())
	}
	return g
}

// Register adds a resource: a name, a cheap reader (typically an
// atomic gauge load), and its watermarks. Resources registered with
// zero Levels are accounted in Snapshot but never drive the state.
// Register before Start; readers are called off the hot path, on the
// evaluation interval only.
func (g *Governor) Register(name string, read func() int64, levels Levels) {
	g.mu.Lock()
	g.resources = append(g.resources, resource{name: name, read: read, levels: levels})
	g.mu.Unlock()
}

// SetLevels replaces the watermarks of a registered resource and
// reports whether the resource exists. Operators and tests use it to
// retune a live system.
func (g *Governor) SetLevels(name string, levels Levels) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.resources {
		if g.resources[i].name == name {
			g.resources[i].levels = levels
			return true
		}
	}
	return false
}

// State reports the current health state: one atomic load, safe on
// every hot path. A nil governor is always healthy.
func (g *Governor) State() State {
	if g == nil || g.opts.Disabled {
		return Healthy
	}
	return State(g.stateG.Value())
}

// ShouldShed reports whether work of the given class must be shed at
// the current state: detached firings from Degraded, deferred batch
// entries from Shedding. Writers are governed by AdmitTxn, not here.
func (g *Governor) ShouldShed(c Class) bool {
	st := g.State()
	switch c {
	case ClassDetached:
		return st >= Degraded
	case ClassDeferred:
		return st >= Shedding
	case ClassWriter:
		return st >= ReadOnly
	}
	return false
}

// NoteShed records one shed unit of the given class.
func (g *Governor) NoteShed(c Class) {
	if g == nil {
		return
	}
	g.sheds[c].Inc()
}

// Sheds reports the cumulative shed counts indexed by Class.
func (g *Governor) Sheds() [3]uint64 {
	var out [3]uint64
	if g == nil {
		return out
	}
	for c := ClassDetached; c <= ClassWriter; c++ {
		out[c] = g.sheds[c].Value()
	}
	return out
}

// Evaluate recomputes the health state from the registered resources
// and applies the transition policy: worsening is immediate, recovery
// waits out the hysteresis window. The background loop calls it on
// the interval; tests call it directly.
func (g *Governor) Evaluate() State {
	if g == nil || g.opts.Disabled {
		return Healthy
	}
	g.mu.Lock()
	if g.shutdown.Load() {
		st := g.state
		g.mu.Unlock()
		return st
	}
	res := append([]resource(nil), g.resources...)
	g.mu.Unlock()

	// Resource readers run outside g.mu: they reach into other
	// subsystems (lockdiscipline — no cross-package call under a held
	// mutex), and a slow reader must not block State transitions.
	raw := Healthy
	for _, r := range res {
		if s := r.levels.stateOf(r.read()); s > raw {
			raw = s
		}
	}
	now := g.clk.Now()

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shutdown.Load() {
		return g.state
	}
	switch {
	case raw > g.state:
		g.setStateLocked(raw)
	case raw < g.state:
		if g.betterSince.IsZero() {
			g.betterSince = now
		} else if now.Sub(g.betterSince) >= g.opts.Hysteresis {
			g.setStateLocked(raw)
		}
	default:
		g.betterSince = time.Time{} // back at the current state: streak over
	}
	return g.state
}

// setStateLocked applies a transition; the caller holds g.mu.
func (g *Governor) setStateLocked(s State) {
	g.state = s
	g.betterSince = time.Time{}
	g.stateG.Set(int64(s))
	g.transitions[s].Inc()
	close(g.waiters)
	g.waiters = make(chan struct{})
}

// AdmitTxn is the writer admission gate. Healthy and degraded admit
// immediately; read-only rejects immediately; shedding parks the
// caller until the state improves or the admission deadline expires,
// then rejects with ErrOverloaded — the queue-then-reject contract
// that turns a thundering herd into bounded, retriable backpressure.
// A nil or disabled governor admits everything.
//
// Below Shedding, admission is two atomic loads (the shutdown flag and
// the state gauge) and takes no lock: every BeginTxn passes here, and
// g.mu's cache line would otherwise move between the cores on each.
func (g *Governor) AdmitTxn() error {
	if g == nil || g.opts.Disabled {
		return nil
	}
	if g.shutdown.Load() {
		return ErrShutdown
	}
	if g.State() < Shedding {
		return nil
	}
	var deadline time.Time
	for {
		g.mu.Lock()
		if g.shutdown.Load() {
			g.mu.Unlock()
			return ErrShutdown
		}
		st := g.state
		ch := g.waiters
		g.mu.Unlock()
		switch {
		case st < Shedding:
			return nil
		case st >= ReadOnly:
			g.NoteShed(ClassWriter)
			return ErrOverloaded
		}
		now := g.clk.Now()
		if deadline.IsZero() {
			deadline = now.Add(g.opts.AdmitDeadline)
		}
		if !now.Before(deadline) {
			g.NoteShed(ClassWriter)
			return ErrOverloaded
		}
		select {
		case <-ch: // state changed: re-check
		case <-g.clk.After(deadline.Sub(now)):
		}
	}
}

// StateChanged returns a channel closed at the next state transition
// (or shutdown). Work parked on a queue while holding transaction
// locks selects on it alongside the queue so a worsening state can
// convert the park into a shed — without this, backpressure applied
// to a lock-holding raiser can deadlock against workers waiting on
// those very locks. A nil governor returns a nil channel, which
// blocks forever in a select: the ungoverned behavior.
func (g *Governor) StateChanged() <-chan struct{} {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters
}

// BeginShutdown flips the governor into drain mode: every pending and
// future admission is refused with ErrShutdown. Idempotent. The
// graceful-shutdown path calls it before draining the executor so no
// new work races the final checkpoint.
func (g *Governor) BeginShutdown() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.shutdown.Load() {
		g.shutdown.Store(true)
		close(g.waiters)
		g.waiters = make(chan struct{})
	}
	g.mu.Unlock()
}

// ShuttingDown reports whether BeginShutdown was called.
func (g *Governor) ShuttingDown() bool {
	if g == nil {
		return false
	}
	return g.shutdown.Load()
}

// Start runs the background evaluation loop. Idempotent; a disabled
// governor never starts one.
func (g *Governor) Start() {
	if g == nil || g.opts.Disabled {
		return
	}
	g.mu.Lock()
	if g.loopStop != nil {
		g.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	g.loopStop, g.loopDone = stop, done
	g.mu.Unlock()
	go g.loop(stop, done)
}

func (g *Governor) loop(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-g.clk.After(g.opts.Interval):
		}
		g.Evaluate()
	}
}

// Stop halts the evaluation loop and waits for it to exit.
// Idempotent; a no-op when the loop never started.
func (g *Governor) Stop() {
	if g == nil {
		return
	}
	g.mu.Lock()
	stop, done := g.loopStop, g.loopDone
	g.loopStop, g.loopDone = nil, nil
	g.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ResourceHealth is one resource's view in a Snapshot.
type ResourceHealth struct {
	Name   string `json:"name"`
	Value  int64  `json:"value"`
	Levels Levels `json:"levels"`
	State  string `json:"state"`
}

// Snapshot is the operator view served by /health and the REPL.
type Snapshot struct {
	State       string            `json:"state"`
	Disabled    bool              `json:"disabled,omitempty"`
	Shutdown    bool              `json:"shutdown,omitempty"`
	Resources   []ResourceHealth  `json:"resources"`
	Sheds       map[string]uint64 `json:"sheds"`
	Transitions map[string]uint64 `json:"transitions"`
}

// Snapshot reads every resource and reports the full governor view.
func (g *Governor) Snapshot() Snapshot {
	if g == nil {
		return Snapshot{State: Healthy.String(), Disabled: true}
	}
	g.mu.Lock()
	res := append([]resource(nil), g.resources...)
	g.mu.Unlock()
	snap := Snapshot{
		State:       g.State().String(),
		Disabled:    g.opts.Disabled,
		Shutdown:    g.shutdown.Load(),
		Sheds:       make(map[string]uint64, 3),
		Transitions: make(map[string]uint64, 4),
	}
	for _, r := range res {
		v := r.read()
		snap.Resources = append(snap.Resources, ResourceHealth{
			Name:   r.name,
			Value:  v,
			Levels: r.levels,
			State:  r.levels.stateOf(v).String(),
		})
	}
	for c := ClassDetached; c <= ClassWriter; c++ {
		snap.Sheds[c.String()] = g.sheds[c].Value()
	}
	for s := Healthy; s <= ReadOnly; s++ {
		snap.Transitions[s.String()] = g.transitions[s].Value()
	}
	return snap
}

// Handler serves the /health contract:
//
//	200  healthy or degraded — keep sending traffic
//	429  shedding — back off, retry with jitter
//	503  read-only or shutting down — stop sending writes
//
// The body is the JSON Snapshot in every case, so a load balancer can
// act on the status code while an operator reads the detail.
func (g *Governor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		snap := g.Snapshot()
		code := http.StatusOK
		switch {
		case snap.Shutdown, snap.State == ReadOnly.String():
			code = http.StatusServiceUnavailable
		case snap.State == Shedding.String():
			code = http.StatusTooManyRequests
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
}
