package sentry

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
)

func TestWantsUnsubscribedIsUseless(t *testing.T) {
	d := New(ConsumerFunc(func(*event.Instance) error { return nil }))
	if d.Wants("method:A.m:after") {
		t.Fatal("Wants true with no subscription")
	}
	useful, useless, pot := d.Stats()
	if useful != 0 || useless != 1 || pot != 0 {
		t.Fatalf("stats = %d/%d/%d, want 0/1/0", useful, useless, pot)
	}
}

func TestWantsSubscribedIsUseful(t *testing.T) {
	d := New(ConsumerFunc(func(*event.Instance) error { return nil }))
	d.Subscribe("k")
	if !d.Wants("k") {
		t.Fatal("Wants false with subscription")
	}
	useful, _, _ := d.Stats()
	if useful != 1 {
		t.Fatalf("useful = %d, want 1", useful)
	}
}

func TestWantsDisabledIsPotentiallyUseful(t *testing.T) {
	d := New(ConsumerFunc(func(*event.Instance) error { return nil }))
	d.Subscribe("k")
	d.SetEnabled("k", false)
	if d.Wants("k") {
		t.Fatal("Wants true while disabled")
	}
	_, _, pot := d.Stats()
	if pot != 1 {
		t.Fatalf("potentially = %d, want 1", pot)
	}
	d.SetEnabled("k", true)
	if !d.Wants("k") {
		t.Fatal("Wants false after re-enable")
	}
}

func TestSubscribeRefCounting(t *testing.T) {
	d := New(ConsumerFunc(func(*event.Instance) error { return nil }))
	d.Subscribe("k")
	d.Subscribe("k")
	d.Unsubscribe("k")
	if !d.Wants("k") {
		t.Fatal("subscription dropped while references remain")
	}
	d.Unsubscribe("k")
	if d.Wants("k") {
		t.Fatal("subscription survived final unsubscribe")
	}
	d.Unsubscribe("nonexistent") // must not panic
	if d.Subscriptions() != 0 {
		t.Fatalf("Subscriptions = %d, want 0", d.Subscriptions())
	}
}

func TestEmitForwardsToConsumer(t *testing.T) {
	var got *event.Instance
	d := New(ConsumerFunc(func(in *event.Instance) error { got = in; return nil }))
	in := &event.Instance{SpecKey: "k"}
	if err := d.Emit(in); err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatal("consumer did not receive the instance")
	}
}

func TestEmitPropagatesConsumerError(t *testing.T) {
	want := errors.New("veto")
	d := New(ConsumerFunc(func(*event.Instance) error { return want }))
	if err := d.Emit(&event.Instance{}); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestConcurrentWants(t *testing.T) {
	d := New(ConsumerFunc(func(*event.Instance) error { return nil }))
	d.Subscribe("hot")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				d.Wants("hot")
				d.Wants("cold")
			}
		}()
	}
	wg.Wait()
	useful, useless, _ := d.Stats()
	if useful != 8000 || useless != 8000 {
		t.Fatalf("stats = %d/%d, want 8000/8000", useful, useless)
	}
}

// TestEmitTraceStartsAtEventTime: the trace Emit mints starts at the
// event's Time, without asking the clock again; an event without a
// Time is stamped from the clock first.
func TestEmitTraceStartsAtEventTime(t *testing.T) {
	d := New(ConsumerFunc(func(*event.Instance) error { return nil }))
	tr := obs.NewTracer(8)
	stamp := time.Date(2024, 1, 1, 0, 0, 1, 0, time.UTC)
	reads := 0
	d.Instrument(nil, tr, func() time.Time { reads++; return stamp })

	at := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	in := &event.Instance{SpecKey: "k", Time: at}
	if err := d.Emit(in); err != nil {
		t.Fatal(err)
	}
	if got, ok := tr.Get(in.Trace); !ok || !got.Start.Equal(at) || reads != 0 {
		t.Fatalf("trace start %v (found %v) after %d clock reads, want %v and none", got.Start, ok, reads, at)
	}

	bare := &event.Instance{SpecKey: "k"}
	if err := d.Emit(bare); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Get(bare.Trace); !bare.Time.Equal(stamp) || !got.Start.Equal(stamp) || reads != 1 {
		t.Fatalf("event without a Time: Time %v, trace start %v, %d clock reads; want %v twice and one read",
			bare.Time, got.Start, reads, stamp)
	}
}

// TestShedProbeSkipsTraces: while the shed probe reports overload,
// Emit delivers the event without minting a trace and counts the skip
// in reach_sentry_traces_shed_total; once it clears, traces are minted
// again.
func TestShedProbeSkipsTraces(t *testing.T) {
	delivered := 0
	d := New(ConsumerFunc(func(*event.Instance) error { delivered++; return nil }))
	reg := obs.NewRegistry()
	d.Instrument(reg, obs.NewTracer(8), nil)
	shed := true
	d.SetShedProbe(func() bool { return shed })
	for i := 0; i < 3; i++ {
		in := &event.Instance{SpecKey: "k", Time: time.Unix(1, 0)}
		if err := d.Emit(in); err != nil || in.Trace != 0 {
			t.Fatalf("emit under overload: err %v, trace %d; want delivery without a trace", err, in.Trace)
		}
	}
	shed = false
	in := &event.Instance{SpecKey: "k", Time: time.Unix(1, 0)}
	if err := d.Emit(in); err != nil || in.Trace == 0 {
		t.Fatalf("emit after overload: err %v, trace %d; want a trace", err, in.Trace)
	}
	if got := reg.Counter("reach_sentry_traces_shed_total", "").Value(); got != 3 || d.TracesShed() != 3 || delivered != 4 {
		t.Fatalf("traces shed = %d (TracesShed %d), delivered %d; want 3, 3, 4", got, d.TracesShed(), delivered)
	}
}
