package sentry_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/oodb"
)

var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// countingClock is a virtual clock that counts its Now reads.
type countingClock struct {
	*clock.Virtual
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Virtual.Now()
}

// emitEngine builds an engine whose sentry delivers the "after
// Sensor.ping" event to one immediate rule; seen reports the trace and
// Time of each occurrence the rule fired for.
func emitEngine(t *testing.T) (e *eca.Engine, key string, clk *countingClock, seen <-chan *event.Instance) {
	t.Helper()
	clk = &countingClock{Virtual: clock.NewVirtual(epoch)}
	db, err := oodb.Open(oodb.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	sensor := oodb.NewClass("Sensor", oodb.Attr{Name: "val", Type: oodb.TInt})
	sensor.Monitored = true
	sensor.Method("ping", func(*oodb.Ctx, *oodb.Object, []any) (any, error) { return nil, nil })
	if err := db.Dictionary().Register(sensor); err != nil {
		t.Fatal(err)
	}
	e = eca.New(db, eca.Options{})
	t.Cleanup(e.Close)
	key = event.MethodSpec{Class: "Sensor", Method: "ping", When: event.After}.Key()
	ch := make(chan *event.Instance, 8)
	err = e.AddRule(&eca.Rule{Name: "seen", EventKey: key, ActionMode: eca.Immediate,
		Action: func(rc *eca.RuleCtx) error { ch <- rc.Trigger; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	return e, key, clk, ch
}

// fired fails the test unless the immediate rule has already fired:
// Emit runs it before returning.
func fired(t *testing.T, seen <-chan *event.Instance) {
	t.Helper()
	select {
	case <-seen:
	default:
		t.Fatal("the rule did not fire during Emit")
	}
}

// TestEmitTraceStartsAtEventTime: an occurrence emitted through the
// sentry gets a trace that starts at the event's Time, without asking
// the clock again; an event without a Time is stamped from the clock
// first.
func TestEmitTraceStartsAtEventTime(t *testing.T) {
	e, key, clk, seen := emitEngine(t)
	d := e.Dispatcher()

	at := epoch.Add(-time.Minute)
	in := &event.Instance{SpecKey: key, Time: at}
	clk.reads.Store(0)
	if err := d.Emit(in); err != nil {
		t.Fatal(err)
	}
	fired(t, seen)
	if got, ok := e.Tracer().Get(in.Trace); !ok || !got.Start.Equal(at) || clk.reads.Load() != 0 {
		t.Fatalf("trace start %v (found %v) after %d clock reads, want %v and none",
			got.Start, ok, clk.reads.Load(), at)
	}

	clk.Advance(time.Second)
	stamp := clk.Virtual.Now()
	bare := &event.Instance{SpecKey: key}
	clk.reads.Store(0)
	if err := d.Emit(bare); err != nil {
		t.Fatal(err)
	}
	fired(t, seen)
	if got, _ := e.Tracer().Get(bare.Trace); !bare.Time.Equal(stamp) || !got.Start.Equal(stamp) || clk.reads.Load() != 1 {
		t.Fatalf("event without a Time: Time %v, trace start %v, %d clock reads; want %v twice and one read",
			bare.Time, got.Start, clk.reads.Load(), stamp)
	}
}

// TestShedProbeSkipsTraces: while the overload governor reports
// degradation, an event emitted through the sentry is delivered
// without a trace and the skip is counted in reach_traces_shed_total;
// once the state recovers, traces are minted again.
func TestShedProbeSkipsTraces(t *testing.T) {
	e, key, _, seen := emitEngine(t)
	d := e.Dispatcher()

	var load atomic.Int64
	gc := clock.NewVirtual(epoch)
	g := governor.New(governor.Options{Clock: gc, Hysteresis: time.Second})
	g.Register("load", load.Load, governor.Levels{Degraded: 1})
	e.SetGovernor(g)
	load.Store(1)
	if st := g.Evaluate(); st != governor.Degraded {
		t.Fatalf("governor state %v, want degraded", st)
	}
	for i := 0; i < 3; i++ {
		in := &event.Instance{SpecKey: key, Time: epoch}
		if err := d.Emit(in); err != nil || in.Trace != 0 {
			t.Fatalf("emit under overload: err %v, trace %d; want delivery without a trace", err, in.Trace)
		}
		fired(t, seen)
	}

	load.Store(0)
	g.Evaluate()
	gc.Advance(time.Second)
	if st := g.Evaluate(); st != governor.Healthy {
		t.Fatalf("governor state %v after the hysteresis window, want healthy", st)
	}
	in := &event.Instance{SpecKey: key, Time: epoch}
	if err := d.Emit(in); err != nil || in.Trace == 0 {
		t.Fatalf("emit after overload: err %v, trace %d; want a trace", err, in.Trace)
	}
	fired(t, seen)
	if got := e.Metrics().Counter("reach_traces_shed_total", "").Value(); got != 3 {
		t.Fatalf("reach_traces_shed_total = %d, want 3", got)
	}
}
