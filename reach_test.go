package reach

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// plantSystem assembles the paper's power-plant schema over the
// public API.
func plantSystem(t testing.TB, dir string) (*System, *VirtualClock) {
	t.Helper()
	vc := NewVirtualClock(time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC))
	sys, err := Open(Options{Dir: dir, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	river := NewClass("River",
		Attr{Name: "level", Type: TInt},
		Attr{Name: "temp", Type: TFloat},
	)
	river.Monitored = true
	river.Method("updateWaterLevel", func(ctx *Ctx, self *Object, args []any) (any, error) {
		return nil, ctx.Set(self, "level", args[0])
	})
	river.Method("getWaterTemp", func(ctx *Ctx, self *Object, args []any) (any, error) {
		return ctx.GetFloat(self, "temp")
	})
	reactor := NewClass("Reactor",
		Attr{Name: "heatOutput", Type: TFloat},
		Attr{Name: "plannedPower", Type: TFloat},
	)
	reactor.Monitored = true
	reactor.Method("getHeatOutput", func(ctx *Ctx, self *Object, args []any) (any, error) {
		return ctx.GetFloat(self, "heatOutput")
	})
	reactor.Method("reducePlannedPower", func(ctx *Ctx, self *Object, args []any) (any, error) {
		frac := args[0].(float64)
		p, err := ctx.GetFloat(self, "plannedPower")
		if err != nil {
			return nil, err
		}
		return nil, ctx.Set(self, "plannedPower", p*(1-frac))
	})
	for _, c := range []*Class{river, reactor} {
		if err := sys.RegisterClass(c); err != nil {
			t.Fatal(err)
		}
	}
	return sys, vc
}

// TestPaperScenarioEndToEnd drives the paper's §6.1 rule through the
// public API against a persistent store, reopens the database, and
// verifies the rule's effects survived.
func TestPaperScenarioEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sys, _ := plantSystem(t, dir)

	tx := sys.Begin()
	river, _ := sys.DB.NewObject(tx, "River")
	sys.DB.Set(tx, river, "temp", 26.0)
	reactor, _ := sys.DB.NewObject(tx, "Reactor")
	sys.DB.Set(tx, reactor, "heatOutput", 2_000_000.0)
	sys.DB.Set(tx, reactor, "plannedPower", 1000.0)
	if err := sys.DB.SetRoot(tx, "BlockA", reactor); err != nil {
		t.Fatal(err)
	}
	if err := sys.DB.SetRoot(tx, "Rhine", river); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loaded, err := sys.LoadRules(`
rule WaterLevel {
    prio 5;
    decl River *river, int x, Reactor *reactor named "BlockA";
    event after river->updateWaterLevel(x);
    cond imm x < 37 and river->getWaterTemp() > 24.5
             and reactor->getHeatOutput() > 1000000;
    action imm reactor->reducePlannedPower(0.05);
};`)
	if err != nil {
		t.Fatal(err)
	}

	tx2 := sys.Begin()
	if _, err := sys.DB.Invoke(tx2, river, "updateWaterLevel", int64(30)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	loaded.Stop()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the 5% reduction must be durable.
	sys2, _ := plantSystem(t, dir)
	defer sys2.Close()
	tx3 := sys2.Begin()
	reactor2, err := sys2.DB.Root(tx3, "BlockA")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sys2.DB.Get(tx3, reactor2, "plannedPower"); v != 950.0 {
		t.Fatalf("plannedPower after reopen = %v, want 950", v)
	}
	tx3.Commit()
}

// TestQueryWithRuleMaintainedIndex combines the query processor, the
// ECA-maintained index, and rule firing in one flow.
func TestQueryWithRuleMaintainedIndex(t *testing.T) {
	sys, _ := plantSystem(t, "")
	defer sys.Close()

	tx := sys.Begin()
	for i := 0; i < 20; i++ {
		r, _ := sys.DB.NewObject(tx, "River")
		sys.DB.Set(tx, r, "level", int64(i%5))
	}
	tx.Commit()

	ix, err := sys.Query.CreateIndex("River", "level")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 20 {
		t.Fatalf("index size = %d, want 20", ix.Size())
	}

	tx2 := sys.Begin()
	objs, err := sys.Query.OQL(tx2, `select r from River r where r.level == 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 {
		t.Fatalf("OQL matched %d, want 4", len(objs))
	}
	// Mutate through a sentried method; the index rule keeps up.
	if _, err := sys.DB.Invoke(tx2, objs[0], "updateWaterLevel", int64(99)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if got := ix.Lookup(int64(99)); len(got) != 1 {
		t.Fatalf("index after sentried update: %v", got)
	}
}

// TestTemporalRuleViaPublicAPI arms a periodic DSL rule and advances
// the virtual clock.
func TestTemporalRuleViaPublicAPI(t *testing.T) {
	sys, vc := plantSystem(t, "")
	defer sys.Close()
	tx := sys.Begin()
	river, _ := sys.DB.NewObject(tx, "River")
	sys.DB.SetRoot(tx, "Rhine", river)
	tx.Commit()

	loaded, err := sys.LoadRules(`
rule Sample {
    decl River *r named "Rhine";
    event every 15s;
    action detached set r.level = r.level + 1;
};`)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Stop()
	vc.Advance(time.Minute)
	// The four firings read and then write the same river, so two of
	// them can deadlock on the lock upgrade; the victim retries after a
	// backoff on the engine's clock, which is virtual here. Keep that
	// clock moving, short of the next 15 s tick, until all have run.
	done := make(chan struct{})
	go func() { sys.Engine.WaitDetached(); close(done) }()
	for step := 0; ; step++ {
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
			if step == 100 {
				t.Fatal("detached firings still running after 10 s of virtual retry time")
			}
			vc.Advance(100 * time.Millisecond)
			continue
		}
		break
	}
	tx2 := sys.Begin()
	if v, _ := sys.DB.Get(tx2, river, "level"); v != int64(4) {
		t.Fatalf("level = %v, want 4", v)
	}
	tx2.Commit()
}

// TestCompositeAcrossPublicAPI defines a cross-transaction composite
// programmatically.
func TestCompositeAcrossPublicAPI(t *testing.T) {
	sys, _ := plantSystem(t, "")
	defer sys.Close()
	tx := sys.Begin()
	river, _ := sys.DB.NewObject(tx, "River")
	tx.Commit()

	key := MethodSpec{Class: "River", Method: "updateWaterLevel", When: After}.Key()
	comp := &Composite{
		Name:     "two-updates",
		Expr:     Seq{Exprs: []Expr{Prim{Key: key}, Prim{Key: key}}},
		Policy:   Chronicle,
		Scope:    ScopeGlobal,
		Validity: time.Hour,
	}
	if err := sys.Engine.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	sys.Engine.AddRule(&Rule{
		Name: "onPair", EventKey: comp.Key(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error { fired.Add(1); return nil },
	})
	for i := 0; i < 4; i++ {
		tx := sys.Begin()
		sys.DB.Invoke(tx, river, "updateWaterLevel", int64(i))
		tx.Commit()
	}
	sys.Engine.DrainComposers()
	sys.Engine.WaitDetached()
	// With one event type at both positions, every update both
	// terminates the oldest open pair and opens a new one: 4 updates
	// yield the 3 overlapping pairs (1,2) (2,3) (3,4).
	if fired.Load() != 3 {
		t.Fatalf("pairs fired = %d, want 3 (chronicle over 4 updates)", fired.Load())
	}
}

// TestVetoRuleProtectsInvariant shows an immediate before-rule acting
// as an integrity constraint through the public API.
func TestVetoRuleProtectsInvariant(t *testing.T) {
	sys, _ := plantSystem(t, "")
	defer sys.Close()
	tx := sys.Begin()
	river, _ := sys.DB.NewObject(tx, "River")
	tx.Commit()

	loaded, err := sys.LoadRules(`
rule NonNegative {
    decl River *r, int x;
    event before r->updateWaterLevel(x);
    cond imm x < 0;
    action imm abort "water level cannot be negative";
};`)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Stop()
	tx2 := sys.Begin()
	if _, err := sys.DB.Invoke(tx2, river, "updateWaterLevel", int64(-1)); err == nil {
		t.Fatal("negative update not vetoed")
	}
	if _, err := sys.DB.Invoke(tx2, river, "updateWaterLevel", int64(10)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
}

// TestManyObjectsManyRules is a small load test over the public API.
func TestManyObjectsManyRules(t *testing.T) {
	sys, _ := plantSystem(t, "")
	defer sys.Close()
	var fired atomic.Int64
	key := MethodSpec{Class: "River", Method: "updateWaterLevel", When: After}.Key()
	for i := 0; i < 10; i++ {
		sys.Engine.AddRule(&Rule{
			Name: fmt.Sprintf("r%d", i), EventKey: key, Priority: i, ActionMode: Immediate,
			Action: func(*RuleCtx) error { fired.Add(1); return nil },
		})
	}
	tx := sys.Begin()
	var rivers []*Object
	for i := 0; i < 50; i++ {
		r, _ := sys.DB.NewObject(tx, "River")
		rivers = append(rivers, r)
	}
	tx.Commit()
	for round := 0; round < 10; round++ {
		tx := sys.Begin()
		for _, r := range rivers {
			if _, err := sys.DB.Invoke(tx, r, "updateWaterLevel", int64(round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if fired.Load() != 10*50*10 {
		t.Fatalf("fired = %d, want %d", fired.Load(), 10*50*10)
	}
	st := sys.Engine.Stats()
	if st.Events != 500 {
		t.Fatalf("events = %d, want 500", st.Events)
	}
}
