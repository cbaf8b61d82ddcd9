// Package clock provides the time source used by REACH for temporal
// events, milestones, and validity intervals.
//
// The engine never calls time.Now directly; it is handed a Clock. A
// Real clock delegates to the runtime, while Virtual is a fully
// deterministic clock driven by Advance, which makes temporal-event
// tests and benchmarks reproducible.
//
// The instrumented paths read the wall clock once per occurrence and
// per transaction begin, and take every later instant as an earlier
// one plus Since: on a Real clock that is a monotonic read, cheaper
// than Now and immune to wall-clock steps.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source for the REACH engine.
type Clock interface {
	// Now reports the current time.
	Now() time.Time
	// Since reports the time elapsed since t, Now().Sub(t); a Real
	// clock reads only its monotonic clock when t carries a monotonic
	// reading (an instant from Now, or one derived from it by Add).
	Since(t time.Time) time.Duration
	// After returns a channel that delivers the clock's time once that
	// time is at or past d from now.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run once the clock passes d from now.
	// The returned Timer can cancel the call.
	AfterFunc(d time.Duration, f func()) *Timer
}

// Timer is a cancellable pending call scheduled by AfterFunc.
type Timer struct {
	mu      sync.Mutex
	stopped bool
	stop    func()
}

// Stop cancels the timer. It reports whether the call was prevented
// from running (false when it already ran or was stopped before).
func (t *Timer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	if t.stop != nil {
		t.stop()
	}
	return true
}

func (t *Timer) markFired() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Real is a Clock backed by the Go runtime.
type Real struct{}

// NewReal returns a Clock backed by the runtime.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (*Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (*Real) Since(t time.Time) time.Duration { return time.Since(t) }

// After implements Clock.
func (*Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (*Real) AfterFunc(d time.Duration, f func()) *Timer {
	t := &Timer{}
	rt := time.AfterFunc(d, func() {
		if t.markFired() {
			f()
		}
	})
	t.stop = func() { rt.Stop() }
	return t
}

// Virtual is a deterministic Clock advanced explicitly by tests and
// benchmarks. The zero value is not usable; call NewVirtual.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	pending pendingQueue
	seq     int64
}

// NewVirtual returns a Virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.AfterFunc(d, func() {
		v.mu.Lock()
		now := v.now
		v.mu.Unlock()
		ch <- now
	})
	return ch
}

// AfterFunc implements Clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) *Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &Timer{}
	v.seq++
	p := &pendingCall{at: v.now.Add(d), seq: v.seq, f: f, timer: t}
	heap.Push(&v.pending, p)
	// Virtual timers are removed lazily: Stop marks the Timer and the
	// queue skips fired/stopped entries when the clock advances.
	return t
}

// Advance moves the clock forward by d, running every call scheduled
// at or before the new time in schedule order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	for {
		if v.pending.Len() == 0 || v.pending[0].at.After(target) {
			break
		}
		p := heap.Pop(&v.pending).(*pendingCall)
		if p.at.After(v.now) {
			v.now = p.at
		}
		v.mu.Unlock()
		if p.timer.markFired() {
			p.f()
		}
		v.mu.Lock()
	}
	if target.After(v.now) {
		v.now = target
	}
	v.mu.Unlock()
}

// AdvanceTo moves the clock forward to the given instant; it is a
// no-op when t is not after the current time.
func (v *Virtual) AdvanceTo(t time.Time) {
	now := v.Now()
	if t.After(now) {
		v.Advance(t.Sub(now))
	}
}

// PendingTimers reports the number of scheduled, not-yet-fired calls.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, p := range v.pending {
		p.timer.mu.Lock()
		if !p.timer.stopped {
			n++
		}
		p.timer.mu.Unlock()
	}
	return n
}

type pendingCall struct {
	at    time.Time
	seq   int64
	f     func()
	timer *Timer
}

type pendingQueue []*pendingCall

func (q pendingQueue) Len() int { return len(q) }

func (q pendingQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q pendingQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *pendingQueue) Push(x any) { *q = append(*q, x.(*pendingCall)) }

func (q *pendingQueue) Pop() any {
	old := *q
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return p
}
