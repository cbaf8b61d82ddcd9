package eca

import (
	"errors"
	"testing"
)

// TestCascadeDepthGuardStopsRunaway drives the classic unterminating
// rule: ping's rule re-invokes ping. Without the guard the engine
// recurses until the stack dies; with it the transaction at the depth
// bound aborts with ErrCascadeDepth, the trip counter moves, and the
// abort unwinds the whole cascade.
func TestCascadeDepthGuardStopsRunaway(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	e.SetCascadeBound(8)
	obj := newSensor(t, db)
	fired := 0
	err := e.AddRule(&Rule{
		Name:     "runaway",
		EventKey: pingKey(),
		CondMode: Immediate, ActionMode: Immediate,
		Action: func(rc *RuleCtx) error {
			fired++
			_, err := rc.DB.Invoke(rc.Txn, obj, "ping", int64(1))
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	_, err = db.Invoke(tx, obj, "ping", int64(1))
	if !errors.Is(err, ErrCascadeDepth) {
		t.Fatalf("runaway cascade returned %v, want ErrCascadeDepth", err)
	}
	tx.Abort()

	if got := e.met.cascadeTrips.Value(); got != 1 {
		t.Errorf("cascade trip counter = %d, want 1", got)
	}
	// The guard let exactly limit generations fire: depths 0..7.
	if fired != 8 {
		t.Errorf("rule fired %d times, want 8 (depth 0..7)", fired)
	}
	if hw := e.met.cascadeHigh.Value(); hw != 7 {
		t.Errorf("cascade highwater = %d, want 7", hw)
	}
}

// TestStaticCascadeBoundTightensCeiling installs an analysis-computed
// bound below the ceiling and verifies the lower limit wins — and that
// clearing it restores the ceiling.
func TestStaticCascadeBoundTightensCeiling(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	err := e.AddRule(&Rule{
		Name:     "chain",
		EventKey: pingKey(),
		CondMode: Immediate, ActionMode: Immediate,
		Action: func(rc *RuleCtx) error {
			_, err := rc.DB.Invoke(rc.Txn, obj, "reset")
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.AddRule(&Rule{
		Name:     "leaf",
		EventKey: resetKey(),
		CondMode: Immediate, ActionMode: Immediate,
		Action: func(rc *RuleCtx) error {
			return rc.Ctx().Set(obj, "alarms", int64(1))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The chain is two rules deep; a static bound of 2 admits it.
	e.SetCascadeBound(2)
	if got := e.CascadeBound(); got != 2 {
		t.Fatalf("CascadeBound = %d, want 2", got)
	}
	tx := db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
		t.Fatalf("chain within bound failed: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A bound of 1 says "no rule may fire a rule": the reset event at
	// depth 1 would fire leaf, so the guard trips.
	e.SetCascadeBound(1)
	tx = db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(1)); !errors.Is(err, ErrCascadeDepth) {
		t.Fatalf("chain past static bound returned %v, want ErrCascadeDepth", err)
	}
	tx.Abort()

	// Clearing the bound restores the (generous) ceiling.
	e.SetCascadeBound(0)
	tx = db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
		t.Fatalf("chain after clearing bound failed: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCascadeGuardIgnoresInertDeepEvents verifies the guard only trips
// when rules would fire: deep events routed to managers with only
// disabled rules pass through.
func TestCascadeGuardIgnoresInertDeepEvents(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	e.SetCascadeBound(2)
	obj := newSensor(t, db)
	if err := e.AddRule(&Rule{
		Name:     "chain",
		EventKey: pingKey(),
		CondMode: Immediate, ActionMode: Immediate,
		Action: func(rc *RuleCtx) error {
			_, err := rc.DB.Invoke(rc.Txn, obj, "reset")
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	disabled := &Rule{
		Name:     "parked",
		EventKey: resetKey(),
		CondMode: Immediate, ActionMode: Immediate,
		Disabled: true,
		Action:   func(rc *RuleCtx) error { return nil },
	}
	if err := e.AddRule(disabled); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
		t.Fatalf("inert deep event tripped the guard: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.met.cascadeTrips.Value(); got != 0 {
		t.Errorf("trip counter = %d, want 0", got)
	}
}
