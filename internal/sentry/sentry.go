// Package sentry implements the Open OODB sentry dispatcher: the
// low-level event trapping mechanism that sits between the database's
// operation paths and the ECA managers (paper §5, §6.2).
//
// A sentry in Open OODB is an in-line wrapper inserted by a language
// preprocessor; in this Go reproduction the database calls the
// dispatcher on every operation of a monitored class. The dispatcher's
// job is to keep the three overhead classes of [WSTR93] honest:
//
//   - useful overhead: the event has subscribers — build the event
//     object and invoke the consumer (the extension always triggers);
//   - useless overhead: the event has no subscribers — a single
//     map lookup, after which normal processing proceeds;
//   - potentially useful overhead: a subscription exists but is
//     currently disabled — the lookup plus a state check.
//
// Counters for each class feed the sentry-overhead experiment (E1).
package sentry

import (
	"sync"
	"sync/atomic" //lint:allow rawatomics copy-on-write subscription snapshot, not metrics
	"time"

	"repro/internal/event"
	"repro/internal/obs"
)

// Consumer receives events that pass the dispatcher's filter —
// normally the ECA engine. The call is synchronous: for Before events
// its return is the go-ahead signal.
type Consumer interface {
	Consume(in *event.Instance) error
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(in *event.Instance) error

// Consume implements Consumer.
func (f ConsumerFunc) Consume(in *event.Instance) error { return f(in) }

// Dispatcher filters events by subscription and forwards the
// survivors to the consumer. It implements the database's Sink
// interface. The zero value is not usable; call New.
type Dispatcher struct {
	consumer Consumer

	// mu guards the writer-side subscription table. Readers never take
	// it: every mutation republishes snap, a copy-on-write map from
	// spec key to enabled, so Wants — called on every operation of
	// every monitored class, subscriber or not — is one atomic load
	// and one map read with no lock traffic between raisers.
	mu   sync.Mutex
	subs map[string]*subscription
	snap atomic.Pointer[map[string]bool]

	// Overhead-class counters. Standalone by default; Instrument
	// rebinds them into a shared registry so they are one source of
	// truth for Stats() and the /metrics surface alike.
	useful      *obs.Counter
	useless     *obs.Counter
	potentially *obs.Counter

	// tracer, when set, mints a lifecycle trace for every event
	// delivered through Emit, starting at the event's Time; now stamps
	// an event that arrives without one.
	tracer *obs.Tracer
	now    func() time.Time

	// shedProbe, when set, is consulted before minting a trace; a true
	// report skips the mint (counted in tracesShed). Observability is
	// the first thing a degrading system gives up — before any work is.
	shedProbe  func() bool
	tracesShed *obs.Counter
}

type subscription struct {
	refs     int
	disabled bool
}

// New returns a dispatcher forwarding to consumer.
func New(consumer Consumer) *Dispatcher {
	return &Dispatcher{
		consumer:    consumer,
		subs:        make(map[string]*subscription),
		useful:      new(obs.Counter),
		useless:     new(obs.Counter),
		potentially: new(obs.Counter),
		tracesShed:  new(obs.Counter),
	}
}

// Instrument binds the dispatcher's overhead counters into reg (as
// reach_sentry_checks_total{class=...}) and installs tracer so Emit
// mints a lifecycle trace per delivered event, starting at the event's
// Time; now stamps an event delivered without one. Call it before the
// dispatcher sees traffic; it is not synchronized against Wants/Emit.
func (d *Dispatcher) Instrument(reg *obs.Registry, tracer *obs.Tracer, now func() time.Time) {
	if reg != nil {
		const name, help = "reach_sentry_checks_total", "Sentry firings by overhead class (WSTR93)."
		d.useful = reg.Counter(name, help, "class", "useful")
		d.useless = reg.Counter(name, help, "class", "useless")
		d.potentially = reg.Counter(name, help, "class", "potential")
		d.tracesShed = reg.Counter("reach_sentry_traces_shed_total",
			"Lifecycle traces skipped because the overload governor reported degradation.")
	}
	if tracer != nil {
		d.tracer = tracer
		d.now = now
		if d.now == nil {
			d.now = time.Now
		}
	}
}

// refreshLocked republishes the read-side snapshot; the caller holds
// d.mu.
func (d *Dispatcher) refreshLocked() {
	snap := make(map[string]bool, len(d.subs))
	for k, s := range d.subs {
		snap[k] = !s.disabled
	}
	d.snap.Store(&snap)
}

// Subscribe registers interest in the spec key (reference counted).
func (d *Dispatcher) Subscribe(specKey string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.subs[specKey]
	if s == nil {
		s = &subscription{}
		d.subs[specKey] = s
	}
	s.refs++
	d.refreshLocked()
}

// Unsubscribe drops one reference to the spec key.
func (d *Dispatcher) Unsubscribe(specKey string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.subs[specKey]
	if s == nil {
		return
	}
	s.refs--
	if s.refs <= 0 {
		delete(d.subs, specKey)
	}
	d.refreshLocked()
}

// SetEnabled toggles delivery for an existing subscription without
// dropping it. A disabled subscription is the "potentially useful"
// overhead class: the sentry still checks, nothing fires.
func (d *Dispatcher) SetEnabled(specKey string, enabled bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.subs[specKey]; s != nil {
		s.disabled = !enabled
	}
	d.refreshLocked()
}

// Wants implements the database Sink pre-check. It is the sentry's
// fast path and must stay cheap: one snapshot load, no locks.
func (d *Dispatcher) Wants(specKey string) bool {
	snap := d.snap.Load()
	if snap == nil {
		d.useless.Inc()
		return false
	}
	enabled, ok := (*snap)[specKey]
	switch {
	case !ok:
		d.useless.Inc()
		return false
	case !enabled:
		d.potentially.Inc()
		return false
	}
	d.useful.Inc()
	return true
}

// SetShedProbe installs the overload probe consulted before trace
// minting (nil removes it). Call it at wiring time, before traffic.
func (d *Dispatcher) SetShedProbe(p func() bool) { d.shedProbe = p }

// TracesShed reports how many lifecycle traces the shed probe skipped.
func (d *Dispatcher) TracesShed() uint64 { return d.tracesShed.Value() }

// Emit implements the database Sink delivery path. It is the origin
// of the event's lifecycle trace: every occurrence entering the
// system through a sentry gets its trace ID minted here. Under
// overload (shed probe reports true) the mint is skipped — event
// delivery itself is never shed here; that is the engine's decision,
// per coupling mode.
func (d *Dispatcher) Emit(in *event.Instance) error {
	if d.tracer != nil && in.Trace == 0 {
		if p := d.shedProbe; p != nil && p() {
			d.tracesShed.Inc()
		} else {
			// The trace starts when the event occurred: no second clock
			// read for the same instant.
			if in.Time.IsZero() {
				in.Time = d.now()
			}
			in.Trace = d.tracer.Begin(in.SpecKey, in.Time)
		}
	}
	return d.consumer.Consume(in)
}

// Stats reports how many sentry firings fell into each overhead class.
func (d *Dispatcher) Stats() (useful, useless, potentially uint64) {
	return d.useful.Value(), d.useless.Value(), d.potentially.Value()
}

// Subscriptions reports the number of live subscription keys.
func (d *Dispatcher) Subscriptions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.subs)
}
