package eca

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/txn"
)

// TemporalHandle controls an armed temporal event source. Handles
// are registered with their engine so Close disarms whatever the
// caller forgot to Stop — a periodic source must not keep re-arming
// its timer chain after shutdown.
type TemporalHandle struct {
	e       *Engine
	mu      sync.Mutex
	timer   *clock.Timer
	stopped bool
}

// Stop disarms the temporal event; periodic events stop re-arming.
func (h *TemporalHandle) Stop() {
	h.mu.Lock()
	h.stopped = true
	if h.timer != nil {
		h.timer.Stop()
	}
	h.mu.Unlock()
	if h.e != nil {
		h.e.dropTemporal(h)
	}
}

func (h *TemporalHandle) setTimer(t *clock.Timer) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		t.Stop()
		return false
	}
	h.timer = t
	return true
}

// every runs fn once per period until the handle is stopped or its
// engine closes: each tick re-arms after fn returns, and setTimer
// refuses to re-arm a stopped handle.
func (h *TemporalHandle) every(period time.Duration, fn func()) {
	var tick func()
	tick = func() {
		if h.e.closed.Load() {
			return
		}
		fn()
		h.setTimer(h.e.clk.AfterFunc(period, tick))
	}
	h.setTimer(h.e.clk.AfterFunc(period, tick))
}

// ArmTemporal schedules a temporal event source (paper §3.1: absolute
// or relative, periodic or aperiodic). The returned handle disarms it.
// Rules on temporal events execute detached (Table 1); composers also
// receive the occurrences.
func (e *Engine) ArmTemporal(spec event.TemporalSpec) (*TemporalHandle, error) {
	h := e.newTemporalHandle()
	now := e.clk.Now()
	switch spec.Temporal {
	case event.Absolute:
		d := spec.At.Sub(now)
		if d < 0 {
			return nil, fmt.Errorf("eca: absolute temporal event %q lies in the past", spec.Name)
		}
		h.setTimer(e.clk.AfterFunc(d, func() { e.emitTemporal(spec, 0) }))
	case event.Relative:
		if spec.Delay <= 0 {
			return nil, fmt.Errorf("eca: relative temporal event %q needs a positive delay", spec.Name)
		}
		h.setTimer(e.clk.AfterFunc(spec.Delay, func() { e.emitTemporal(spec, 0) }))
	case event.Periodic:
		if spec.Period <= 0 {
			return nil, fmt.Errorf("eca: periodic temporal event %q needs a positive period", spec.Name)
		}
		h.every(spec.Period, func() { e.emitTemporal(spec, 0) })
	default:
		return nil, fmt.Errorf("eca: ArmTemporal cannot arm %q (use ArmMilestone for milestones)", spec.Key())
	}
	return h, nil
}

// ArmMilestone arms a milestone for a transaction: if t has not
// resolved (reached its milestone) when the delay elapses, the
// milestone event fires so a contingency plan can be invoked before
// the deadline is missed (§3.1). Call Stop on the handle when the
// milestone is reached in time.
func (e *Engine) ArmMilestone(t *txn.Txn, spec event.TemporalSpec) (*TemporalHandle, error) {
	if spec.Temporal != event.MilestoneKind {
		return nil, fmt.Errorf("eca: ArmMilestone needs a milestone spec")
	}
	if spec.Delay <= 0 {
		return nil, fmt.Errorf("eca: milestone %q needs a positive delay", spec.Name)
	}
	h := e.newTemporalHandle()
	h.setTimer(e.clk.AfterFunc(spec.Delay, func() {
		if t.Status() == txn.Active {
			// The milestone was not reached in time: the probability of
			// missing the deadline is high — raise the event.
			e.emitTemporal(spec, t.ID())
		}
	}))
	return h, nil
}

// newTemporalHandle creates a handle registered for shutdown: Close
// stops every armed handle that was not stopped by its owner.
func (e *Engine) newTemporalHandle() *TemporalHandle {
	h := &TemporalHandle{e: e}
	e.tempMu.Lock()
	e.temporals[h] = struct{}{}
	e.tempMu.Unlock()
	return h
}

// dropTemporal deregisters a stopped handle so milestone-per-txn
// usage does not grow the registry without bound.
func (e *Engine) dropTemporal(h *TemporalHandle) {
	e.tempMu.Lock()
	delete(e.temporals, h)
	e.tempMu.Unlock()
}

// stopTemporals disarms every registered handle. Handles are
// collected first: Stop deregisters, which takes tempMu.
func (e *Engine) stopTemporals() {
	e.tempMu.Lock()
	hs := make([]*TemporalHandle, 0, len(e.temporals))
	for h := range e.temporals {
		hs = append(hs, h)
	}
	e.tempMu.Unlock()
	for _, h := range hs {
		h.Stop()
	}
}

// emitTemporal injects a temporal occurrence into the engine. The
// transaction id is carried for milestones so the contingency rule
// can identify the endangered transaction, but the event remains
// transaction-less for coupling purposes (detached only).
func (e *Engine) emitTemporal(spec event.TemporalSpec, txnID uint64) {
	if e.closed.Load() {
		return
	}
	in := &event.Instance{
		SpecKey: spec.Key(),
		Kind:    event.KindTemporal,
		Time:    e.clk.Now(),
		Args:    []any{txnID},
	}
	e.Consume(in)
}
