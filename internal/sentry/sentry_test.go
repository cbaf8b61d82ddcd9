package sentry

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/event"
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
