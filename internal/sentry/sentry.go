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
// Everything after the filter — stamping, trace minting, rule firing —
// belongs to the ECA engine the dispatcher forwards to (Figure 2).
package sentry

import (
	"sync"
	"sync/atomic" //lint:allow rawatomics copy-on-write subscription snapshot, not metrics

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
	}
}

// Instrument binds the dispatcher's overhead counters into reg (as
// reach_sentry_checks_total{class=...}). Call it before the dispatcher
// sees traffic; it is not synchronized against Wants.
func (d *Dispatcher) Instrument(reg *obs.Registry) {
	const name, help = "reach_sentry_checks_total", "Sentry firings by overhead class (WSTR93)."
	d.useful = reg.Counter(name, help, "class", "useful")
	d.useless = reg.Counter(name, help, "class", "useless")
	d.potentially = reg.Counter(name, help, "class", "potential")
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

// Emit implements the database Sink delivery path: the occurrence
// passed the filter, so it goes to the consumer, whose return is the
// go-ahead signal.
func (d *Dispatcher) Emit(in *event.Instance) error { return d.consumer.Consume(in) }

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
