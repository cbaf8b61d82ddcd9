package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC) // ICDE'95 week

func TestVirtualNowAdvances(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	v.Advance(90 * time.Second)
	if got, want := v.Now(), epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceToBackwardIsNoop(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(time.Hour)
	v.AdvanceTo(epoch) // in the past
	if got, want := v.Now(), epoch.Add(time.Hour); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestVirtualAfterFuncFiresInOrder(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int
	v.AfterFunc(3*time.Second, func() { mu.Lock(); order = append(order, 3); mu.Unlock() })
	v.AfterFunc(1*time.Second, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
	v.AfterFunc(2*time.Second, func() { mu.Lock(); order = append(order, 2); mu.Unlock() })
	v.Advance(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestVirtualAfterFuncSameInstantFIFO(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.AfterFunc(time.Second, func() { mu.Lock(); order = append(order, i); mu.Unlock() })
	}
	v.Advance(time.Second)
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(epoch)
	var fired atomic.Bool
	tm := v.AfterFunc(time.Second, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("first Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	v.Advance(2 * time.Second)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestVirtualStopAfterFire(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.AfterFunc(time.Second, func() {})
	v.Advance(2 * time.Second)
	if tm.Stop() {
		t.Fatal("Stop() after fire = true, want false")
	}
}

func TestVirtualAfterChannel(t *testing.T) {
	v := NewVirtual(epoch)
	ch := v.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	v.Advance(10 * time.Second)
	select {
	case at := <-ch:
		if !at.Equal(epoch.Add(10 * time.Second)) {
			t.Fatalf("After delivered %v, want %v", at, epoch.Add(10*time.Second))
		}
	case <-time.After(time.Second):
		t.Fatal("After did not fire after Advance")
	}
}

func TestVirtualPendingTimers(t *testing.T) {
	v := NewVirtual(epoch)
	t1 := v.AfterFunc(time.Second, func() {})
	v.AfterFunc(2*time.Second, func() {})
	if got := v.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers() = %d, want 2", got)
	}
	t1.Stop()
	if got := v.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers() after Stop = %d, want 1", got)
	}
	v.Advance(3 * time.Second)
	if got := v.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers() after Advance = %d, want 0", got)
	}
}

func TestVirtualTimerFiresAtItsInstant(t *testing.T) {
	v := NewVirtual(epoch)
	var at time.Time
	v.AfterFunc(7*time.Second, func() { at = v.Now() })
	v.Advance(time.Minute)
	if want := epoch.Add(7 * time.Second); !at.Equal(want) {
		t.Fatalf("callback saw Now()=%v, want %v", at, want)
	}
}

func TestVirtualNestedSchedule(t *testing.T) {
	v := NewVirtual(epoch)
	var fired []time.Time
	v.AfterFunc(time.Second, func() {
		fired = append(fired, v.Now())
		v.AfterFunc(time.Second, func() {
			fired = append(fired, v.Now())
		})
	})
	v.Advance(5 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d times, want 2 (nested AfterFunc must run in same Advance)", len(fired))
	}
	if want := epoch.Add(2 * time.Second); !fired[1].Equal(want) {
		t.Fatalf("nested timer fired at %v, want %v", fired[1], want)
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	before := time.Now()
	got := r.Now()
	if got.Before(before.Add(-time.Minute)) {
		t.Fatalf("Real.Now() = %v, far before wall clock", got)
	}
	var fired atomic.Bool
	tm := r.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	defer tm.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for !fired.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !fired.Load() {
		t.Fatal("Real.AfterFunc never fired")
	}
}

// Since is Now().Sub(t) on both clocks, and an instant derived as
// t.Add(Since(t)) is the clock's now: the boundaries the engine chains
// that way land where Now would have put them.
func TestSince(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(3 * time.Second)
	if got := v.Since(epoch); got != 3*time.Second {
		t.Fatalf("Virtual.Since = %v, want 3s", got)
	}
	if at := epoch.Add(v.Since(epoch)); !at.Equal(v.Now()) {
		t.Fatalf("derived instant %v, want %v", at, v.Now())
	}

	r := NewReal()
	start := r.Now()
	time.Sleep(time.Millisecond)
	d := r.Since(start)
	if d < time.Millisecond {
		t.Fatalf("Real.Since after a 1ms sleep = %v", d)
	}
	// The derived instant keeps start's monotonic reading, so the next
	// boundary is again a monotonic read.
	if at := start.Add(d); at.Before(start) || r.Since(at) < 0 {
		t.Fatalf("derived instant %v is not after %v", at, start)
	}
}

func TestRealAfterFuncStop(t *testing.T) {
	r := NewReal()
	var fired atomic.Bool
	tm := r.AfterFunc(time.Hour, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true")
	}
	if fired.Load() {
		t.Fatal("stopped real timer fired")
	}
}

// Property: for any sequence of positive advances, Now is the sum of
// advances and never moves backwards.
func TestVirtualMonotonicProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		v := NewVirtual(epoch)
		var total time.Duration
		prev := v.Now()
		for _, s := range steps {
			d := time.Duration(s) * time.Millisecond
			v.Advance(d)
			total += d
			now := v.Now()
			if now.Before(prev) {
				return false
			}
			prev = now
		}
		return v.Now().Equal(epoch.Add(total))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every scheduled timer fires exactly once, regardless of
// how the advance is split into steps.
func TestVirtualAllTimersFireOnceProperty(t *testing.T) {
	f := func(delays []uint8, split uint8) bool {
		v := NewVirtual(epoch)
		var fired atomic.Int64
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			v.AfterFunc(dd, func() { fired.Add(1) })
		}
		steps := int(split%7) + 1
		for i := 0; i < steps; i++ {
			v.Advance(max/time.Duration(steps) + time.Millisecond)
		}
		return fired.Load() == int64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRealNow and BenchmarkRealSince price the two reads the
// engine chooses between: a wall read, and a monotonic distance from
// an instant that carries a monotonic reading.
func BenchmarkRealNow(b *testing.B) {
	r := NewReal()
	for i := 0; i < b.N; i++ {
		sinkTime = r.Now()
	}
}

func BenchmarkRealSince(b *testing.B) {
	r := NewReal()
	start := r.Now()
	for i := 0; i < b.N; i++ {
		sinkDur = r.Since(start)
	}
}

var (
	sinkTime time.Time
	sinkDur  time.Duration
)
