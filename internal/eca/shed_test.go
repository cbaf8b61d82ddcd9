package eca

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/governor"
)

// TestTracesShedAtTheEngineDoor: every occurrence gets its lifecycle
// trace at the engine door, whichever way it entered. While the
// governor is degraded, a method, a flow-control and a temporal
// occurrence are each delivered untraced and counted once in
// reach_traces_shed_total (the temporal one's detached firing is shed
// too, so its dead letter shows the trace it carried); once the state
// recovers, each is traced again, from its Time.
func TestTracesShedAtTheEngineDoor(t *testing.T) {
	e, db, vc := newTestEngine(t, Options{})
	obj := newSensor(t, db)

	var load atomic.Int64
	gc := clock.NewVirtual(epoch)
	g := governor.New(governor.Options{Clock: gc, Hysteresis: time.Second})
	g.Register("load", load.Load, governor.Levels{Degraded: 1})
	e.SetGovernor(g)

	type seen struct {
		rule  string
		trace uint64
		at    time.Time
	}
	got := make(chan seen, 3)
	record := func(rule string) func(*RuleCtx) error {
		return func(rc *RuleCtx) error {
			got <- seen{rule, rc.Trigger.Trace, rc.Trigger.Time}
			return nil
		}
	}
	tick := event.TemporalSpec{Name: "tick", Temporal: event.Relative, Delay: time.Second}
	for _, r := range []*Rule{
		{Name: "method", EventKey: pingKey(), ActionMode: Immediate, Action: record("method")},
		{Name: "flow", EventKey: event.TxnSpec{Phase: event.BOT}.Key(), ActionMode: Immediate, Action: record("flow")},
		{Name: "temporal", EventKey: tick.Key(), ActionMode: Detached, Action: record("temporal")},
	} {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	occur := func(fired int) map[string]seen {
		t.Helper()
		fireOnce(t, db, obj) // BOT, then the ping
		if _, err := e.ArmTemporal(tick); err != nil {
			t.Fatal(err)
		}
		vc.Advance(tick.Delay)
		e.WaitDetached()
		out := make(map[string]seen, fired)
		for len(out) < fired {
			select {
			case s := <-got:
				out[s.rule] = s
			default:
				t.Fatalf("rules fired %v, want %d", out, fired)
			}
		}
		return out
	}
	shed := e.Metrics().Counter("reach_traces_shed_total", "")

	load.Store(1)
	if st := g.Evaluate(); st != governor.Degraded {
		t.Fatalf("governor state %v, want degraded", st)
	}
	for rule, s := range occur(2) {
		if s.trace != 0 {
			t.Errorf("%s occurrence traced (%d) while degraded", rule, s.trace)
		}
	}
	if dl := e.DeadLetters(); len(dl) != 1 || dl[0].EventKey != tick.Key() || dl[0].Trace != 0 {
		t.Errorf("dead letters while degraded = %+v, want the temporal firing, untraced", dl)
	}
	if n := shed.Value(); n != 3 {
		t.Fatalf("reach_traces_shed_total = %d after three degraded occurrences, want 3", n)
	}

	load.Store(0)
	g.Evaluate()
	gc.Advance(time.Second)
	if st := g.Evaluate(); st != governor.Healthy {
		t.Fatalf("governor state %v after the hysteresis window, want healthy", st)
	}
	vc.Advance(time.Minute) // occurrences after recovery carry a later Time
	for rule, s := range occur(3) {
		tr, ok := e.Tracer().Get(s.trace)
		if s.trace == 0 || !ok || !tr.Start.Equal(s.at) {
			t.Errorf("%s occurrence after recovery: trace %d (found %v) starts %v, want a trace from its Time %v",
				rule, s.trace, ok, tr.Start, s.at)
		}
	}
	if n := shed.Value(); n != 3 {
		t.Fatalf("reach_traces_shed_total = %d after recovery, want still 3", n)
	}
}
