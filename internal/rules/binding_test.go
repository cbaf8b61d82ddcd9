package rules

import (
	"strings"
	"testing"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
)

// These tests pin how a compiled rule binds its declared variables:
// named roots are fetched on every firing, event receivers and
// parameters are taken from the trigger's primitive constituents in
// occurrence order, an absent constituent leaves its variables unbound,
// and a variable bound twice keeps the last value written.

var levelAfter = event.MethodSpec{Class: "River", Method: "updateWaterLevel", When: event.After}.Key()

// rivers creates n River objects whose levels are 10, 20, 30, ...
func rivers(t *testing.T, db *oodb.DB, n int) []*oodb.Object {
	t.Helper()
	tx := db.Begin()
	var out []*oodb.Object
	for i := 0; i < n; i++ {
		r, err := db.NewObject(tx, "River")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Set(tx, r, "level", int64(10*(i+1))); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return out
}

// compileOne parses and compiles the single rule in src.
func compileOne(t *testing.T, e *eca.Engine, src string) *eca.Rule {
	t.Helper()
	decls, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r, _, _, err := Compile(e, decls[0])
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// levelPart is one after-updateWaterLevel occurrence on obj with x.
func levelPart(obj *oodb.Object, x int64) *event.Instance {
	return &event.Instance{SpecKey: levelAfter, Kind: event.KindMethod, OID: uint64(obj.OID()), Args: []any{x}}
}

// evalCond runs r's condition on trigger in a fresh transaction.
func evalCond(t *testing.T, e *eca.Engine, db *oodb.DB, r *eca.Rule, trigger *event.Instance) (bool, error) {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	return r.Cond(&eca.RuleCtx{Engine: e, DB: db, Txn: tx, Trigger: trigger})
}

func TestBindingRootRepointedBetweenFirings(t *testing.T) {
	e, db, _ := newPlant(t)
	river := rivers(t, db, 1)[0]
	tx := db.Begin()
	a, _ := db.NewObject(tx, "Reactor")
	b, _ := db.NewObject(tx, "Reactor")
	if err := db.SetRoot(tx, "Block", a); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(e, `rule Feed {
		decl River *r, int x, Reactor *re named "Block";
		event after r->updateWaterLevel(x);
		action imm set re.plannedPower = x * 1.0;
	};`)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Stop()
	update := func(x int64) {
		t.Helper()
		tx := db.Begin()
		if _, err := db.Invoke(tx, river, "updateWaterLevel", x); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	power := func(obj *oodb.Object) any {
		t.Helper()
		tx := db.Begin()
		defer tx.Abort()
		v, err := db.Get(tx, obj, "plannedPower")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	update(10)
	tx = db.Begin()
	if err := db.SetRoot(tx, "Block", b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	update(20)
	if got := power(a); got != 10.0 {
		t.Fatalf("first firing wrote %v to the old root, want 10", got)
	}
	if got := power(b); got != 20.0 {
		t.Fatalf("second firing wrote %v to the re-pointed root, want 20", got)
	}
}

func TestBindingSeqBindsConstituentsInOrder(t *testing.T) {
	e, db, _ := newPlant(t)
	rs := rivers(t, db, 2)
	r := compileOne(t, e, `rule Pair {
		decl River *r, int x, River *r2, int y;
		event seq(after r->updateWaterLevel(x), after r2->updateWaterLevel(y));
		cond deferred x == 1 and y == 2 and r.level == 10 and r2.level == 20;
		action deferred abort "unused";
	};`)
	composite := func(parts ...*event.Instance) *event.Instance {
		return &event.Instance{SpecKey: r.EventKey, Kind: event.KindComposite, Parts: parts}
	}
	for _, c := range []struct {
		name string
		in   *event.Instance
		want bool
	}{
		{"in order", composite(levelPart(rs[0], 1), levelPart(rs[1], 2)), true},
		{"swapped", composite(levelPart(rs[1], 2), levelPart(rs[0], 1)), false},
		// Constituents are taken from the flattened parts, depth first.
		{"nested", composite(composite(levelPart(rs[0], 1)), levelPart(rs[1], 2)), true},
	} {
		ok, err := evalCond(t, e, db, r, c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.want {
			t.Errorf("%s: condition = %v, want %v", c.name, ok, c.want)
		}
	}
}

func TestBindingAbsentBranchLeavesVariableUnbound(t *testing.T) {
	e, db, _ := newPlant(t)
	rs := rivers(t, db, 1)
	r := compileOne(t, e, `rule Either {
		decl River *r, int x, River *r2, int y;
		event or(after r->updateWaterLevel(x), before r2->updateWaterLevel(y));
		cond deferred x == 1 and y > 0;
		action deferred abort "unused";
	};`)
	in := &event.Instance{SpecKey: r.EventKey, Kind: event.KindComposite, Parts: []*event.Instance{levelPart(rs[0], 1)}}
	_, err := evalCond(t, e, db, r, in)
	if err == nil || !strings.Contains(err.Error(), `variable "y" not bound`) {
		t.Fatalf("condition on the absent branch's variable: err = %v, want \"variable \\\"y\\\" not bound\"", err)
	}
}

func TestBindingLastWriterWins(t *testing.T) {
	e, db, _ := newPlant(t)
	rs := rivers(t, db, 2)

	// Two constituents bind the same variables: the later one wins.
	twice := compileOne(t, e, `rule Twice {
		decl River *r, int x;
		event seq(after r->updateWaterLevel(x), after r->updateWaterLevel(x));
		cond deferred x == 2 and r.level == 20;
		action deferred abort "unused";
	};`)
	in := &event.Instance{SpecKey: twice.EventKey, Kind: event.KindComposite,
		Parts: []*event.Instance{levelPart(rs[0], 1), levelPart(rs[1], 2)}}
	if ok, err := evalCond(t, e, db, twice, in); err != nil || !ok {
		t.Fatalf("seq binding x twice: condition = %v, %v; want the second constituent's values", ok, err)
	}

	// An absent later constituent does not unbind what an earlier one
	// wrote.
	either := compileOne(t, e, `rule Either {
		decl River *r, int x;
		event or(after r->updateWaterLevel(x), before r->updateWaterLevel(x));
		cond deferred x == 1 and r.level == 10;
		action deferred abort "unused";
	};`)
	in = &event.Instance{SpecKey: either.EventKey, Kind: event.KindComposite,
		Parts: []*event.Instance{levelPart(rs[0], 1)}}
	if ok, err := evalCond(t, e, db, either, in); err != nil || !ok {
		t.Fatalf("or with one branch present: condition = %v, %v; want the present branch's values", ok, err)
	}

	// A named root that the event also binds: the event's receiver,
	// written after the root, wins.
	tx := db.Begin()
	if err := db.SetRoot(tx, "Rhine", rs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rooted := compileOne(t, e, `rule Rooted {
		decl River *r named "Rhine", int x;
		event after r->updateWaterLevel(x);
		cond imm r.level == 20;
		action imm abort "unused";
	};`)
	if ok, err := evalCond(t, e, db, rooted, levelPart(rs[1], 5)); err != nil || !ok {
		t.Fatalf("root rebound by the event: condition = %v, %v; want the event's receiver", ok, err)
	}
}
