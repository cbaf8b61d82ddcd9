package eca

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
)

func TestListRules(t *testing.T) {
	e, _, _ := newTestEngine(t, Options{})
	e.AddRule(&Rule{Name: "b", EventKey: pingKey(), Priority: 1, ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil }})
	e.AddRule(&Rule{Name: "a", EventKey: pingKey(), Priority: 9, ActionMode: Deferred,
		Action: func(*RuleCtx) error { return nil }})
	infos := e.ListRules()
	if len(infos) != 2 {
		t.Fatalf("ListRules = %d entries, want 2", len(infos))
	}
	if infos[0].Name != "a" || infos[0].Priority != 9 || infos[0].ActionMode != Deferred {
		t.Fatalf("first rule = %+v, want highest-priority 'a'", infos[0])
	}
	if infos[1].CondMode != Immediate {
		t.Fatalf("rule b cond mode = %v", infos[1].CondMode)
	}
}

func TestSetRuleEnabled(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var fired atomic.Int64
	e.AddRule(&Rule{Name: "r", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { fired.Add(1); return nil }})
	if !e.SetRuleEnabled(pingKey(), "r", false) {
		t.Fatal("SetRuleEnabled = false for existing rule")
	}
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Commit()
	if fired.Load() != 0 {
		t.Fatal("disabled rule fired")
	}
	e.SetRuleEnabled(pingKey(), "r", true)
	tx2 := db.Begin()
	db.Invoke(tx2, obj, "ping", int64(1))
	tx2.Commit()
	if fired.Load() != 1 {
		t.Fatal("re-enabled rule did not fire")
	}
	if e.SetRuleEnabled("no:such", "r", true) {
		t.Fatal("SetRuleEnabled = true for missing manager")
	}
	if e.SetRuleEnabled(pingKey(), "missing", true) {
		t.Fatal("SetRuleEnabled = true for missing rule")
	}
}

// ListRules reads every rule's enabled state while SetRuleEnabled flips
// it; under the race detector this fails unless the read happens under
// the registration lock.
func TestSetRuleEnabledConcurrentWithListRules(t *testing.T) {
	e, _, _ := newTestEngine(t, Options{AllowUnsafeImmediateComposite: true})
	if err := e.DefineComposite(seqComposite("flip", algebra.ScopeTransaction)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Rule{
		{Name: "p", EventKey: pingKey(), ActionMode: Immediate},
		{Name: "c", EventKey: "composite:flip", ActionMode: Immediate},
	} {
		r.Action = func(*RuleCtx) error { return nil }
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			e.SetRuleEnabled(pingKey(), "p", i%2 == 1)
			e.SetRuleEnabled("composite:flip", "c", i%2 == 1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, info := range e.ListRules() {
				_ = info.Disabled
			}
		}
	}()
	wg.Wait()
	for _, info := range e.ListRules() {
		if info.Disabled {
			t.Errorf("rule %s still disabled after the last SetRuleEnabled(true)", info.Name)
		}
	}
}

func TestBackgroundGC(t *testing.T) {
	e, db, vc := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	comp := &algebra.Composite{
		Name: "gc-pair",
		Expr: algebra.Seq{Exprs: []algebra.Expr{
			algebra.Prim{Key: pingKey()}, algebra.Prim{Key: resetKey()},
		}},
		Policy:   algebra.Chronicle,
		Scope:    algebra.ScopeGlobal,
		Validity: time.Minute,
	}
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	h := e.StartGC(30 * time.Second)
	defer h.Stop()

	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1)) // half a pair
	tx.Commit()
	e.DrainComposers()
	if got := e.SemiComposed(); got != 1 {
		t.Fatalf("semi-composed = %d, want 1", got)
	}
	// Within validity: GC ticks but keeps it.
	vc.Advance(45 * time.Second)
	if got := e.SemiComposed(); got != 1 {
		t.Fatalf("semi-composed after early GC = %d, want 1", got)
	}
	// Past validity: the background collector removes it.
	vc.Advance(2 * time.Minute)
	if got := e.SemiComposed(); got != 0 {
		t.Fatalf("semi-composed after GC = %d, want 0", got)
	}
	if e.Stats().SemiComposedGCed == 0 {
		t.Fatal("GC counter not incremented")
	}
	// Stopping the collector halts further ticks (no panic on closed).
	h.Stop()
	vc.Advance(10 * time.Minute)
}
