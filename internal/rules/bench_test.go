package rules

import (
	"testing"

	"repro/internal/eca"
	"repro/internal/event"
)

// fireRule is the §6.1 water-level rule with its condition reading
// attributes instead of calling methods, so evaluating it allocates
// only what binding its variables does.
const fireRule = `
rule Fire {
    decl River *river, int x, Reactor *reactor named "BlockA";
    event after river->updateWaterLevel(x);
    cond imm x < 37 and river.temp > 24.5 and reactor.heatOutput > 1000000;
    action imm set river.level = x;
};
`

// compiledFiring compiles fireRule over the plant schema and returns it
// with a context for one firing on a primitive trigger, inside a
// transaction that stays open until the test ends.
func compiledFiring(tb testing.TB) (*eca.Rule, *eca.RuleCtx) {
	tb.Helper()
	e, db, _ := newPlant(tb)
	tx := db.Begin()
	river, _ := db.NewObject(tx, "River")
	reactor, _ := db.NewObject(tx, "Reactor")
	for _, err := range []error{
		db.Set(tx, river, "temp", 26.0),
		db.Set(tx, reactor, "heatOutput", 2_000_000.0),
		db.SetRoot(tx, "BlockA", reactor),
		tx.Commit(),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	decls, err := Parse(fireRule)
	if err != nil {
		tb.Fatal(err)
	}
	r, _, _, err := Compile(e, decls[0])
	if err != nil {
		tb.Fatal(err)
	}
	tx = db.Begin()
	tb.Cleanup(func() { _ = tx.Abort() })
	trigger := &event.Instance{SpecKey: r.EventKey, Kind: event.KindMethod,
		OID: uint64(river.OID()), Args: []any{int64(30)}}
	return r, &eca.RuleCtx{Engine: e, DB: db, Txn: tx, Trigger: trigger}
}

// BenchmarkCompiledRuleFire evaluates the compiled condition on a
// primitive trigger: fetch the named root, bind the event's receiver and
// parameter, read two attributes, compare three times.
func BenchmarkCompiledRuleFire(b *testing.B) {
	r, rc := compiledFiring(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := r.Cond(rc); err != nil || !ok {
			b.Fatalf("condition = %v, %v; want true", ok, err)
		}
	}
}

// The condition allocates nothing: its variable slots are on the
// compiled closure's stack, bindEnv builds no map, flattens no parts
// and keeps no bookkeeping beside the slots, and the rule context hands
// out its object context for free.
func TestCompiledRuleAllocationCeilings(t *testing.T) {
	r, rc := compiledFiring(t)
	fire := func() {
		if ok, err := r.Cond(rc); err != nil || !ok {
			t.Fatalf("condition = %v, %v; want true", ok, err)
		}
	}
	fire() // the first firing takes the locks
	if n := testing.AllocsPerRun(100, fire); n != 0 {
		t.Errorf("compiled condition on a primitive trigger: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = rc.Ctx() }); n != 0 {
		t.Errorf("RuleCtx.Ctx: %.0f allocations, want 0", n)
	}
}
