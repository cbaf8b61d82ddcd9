package rules

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/eca"
	"repro/internal/oodb"
)

var epoch = time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC)

// waterLevelRule is the paper's §6.1 example, verbatim in spirit.
const waterLevelRule = `
rule WaterLevel {
    prio 5;
    decl River *river, int x, Reactor *reactor named "BlockA";
    event after river->updateWaterLevel(x);
    cond imm x < 37 and river->getWaterTemp() > 24.5
             and reactor->getHeatOutput() > 1000000;
    action imm reactor->reducePlannedPower(0.05);
};
`

// newPlant builds the power-plant schema of §6.1.
func newPlant(t testing.TB) (*eca.Engine, *oodb.DB, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(epoch)
	db, err := oodb.Open(oodb.Options{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	river := oodb.NewClass("River",
		oodb.Attr{Name: "level", Type: oodb.TInt},
		oodb.Attr{Name: "temp", Type: oodb.TFloat},
	)
	river.Monitored = true
	river.Method("updateWaterLevel", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "level", args[0])
	})
	river.Method("getWaterTemp", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return ctx.GetFloat(self, "temp")
	})
	reactor := oodb.NewClass("Reactor",
		oodb.Attr{Name: "heatOutput", Type: oodb.TFloat},
		oodb.Attr{Name: "plannedPower", Type: oodb.TFloat},
	)
	reactor.Monitored = true
	reactor.Method("getHeatOutput", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return ctx.GetFloat(self, "heatOutput")
	})
	reactor.Method("reducePlannedPower", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		frac, _ := args[0].(float64)
		p, err := ctx.GetFloat(self, "plannedPower")
		if err != nil {
			return nil, err
		}
		return nil, ctx.Set(self, "plannedPower", p*(1-frac))
	})
	for _, c := range []*oodb.Class{river, reactor} {
		if err := db.Dictionary().Register(c); err != nil {
			t.Fatal(err)
		}
	}
	e := eca.New(db, eca.Options{})
	t.Cleanup(e.Close)
	return e, db, vc
}

func TestWaterLevelRuleEndToEnd(t *testing.T) {
	e, db, _ := newPlant(t)
	// Set up the plant: a river and the named reactor "BlockA".
	tx := db.Begin()
	river, _ := db.NewObject(tx, "River")
	db.Set(tx, river, "temp", 26.0)
	reactorObj, _ := db.NewObject(tx, "Reactor")
	db.Set(tx, reactorObj, "heatOutput", 2_000_000.0)
	db.Set(tx, reactorObj, "plannedPower", 1000.0)
	if err := db.SetRoot(tx, "BlockA", reactorObj); err != nil {
		t.Skip("in-memory DB cannot persist; binding roots needs names only")
	}
	tx.Commit()

	loaded, err := Load(e, waterLevelRule)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Stop()
	if len(loaded.Rules) != 1 || loaded.Rules[0].Name != "WaterLevel" {
		t.Fatalf("loaded %v", loaded.Rules)
	}
	if loaded.Rules[0].Priority != 5 {
		t.Fatalf("priority = %d, want 5", loaded.Rules[0].Priority)
	}

	// Low water level while hot: the rule must reduce planned power 5%.
	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, river, "updateWaterLevel", int64(30)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := db.Begin()
	if v, _ := db.Get(tx3, reactorObj, "plannedPower"); v != 950.0 {
		t.Fatalf("plannedPower = %v, want 950 (reduced by 5%%)", v)
	}
	// High water level: condition false, no further reduction.
	if _, err := db.Invoke(tx3, river, "updateWaterLevel", int64(80)); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	tx4 := db.Begin()
	if v, _ := db.Get(tx4, reactorObj, "plannedPower"); v != 950.0 {
		t.Fatalf("plannedPower = %v, want 950 (unchanged)", v)
	}
	tx4.Commit()
}

func TestWaterLevelRuleEndToEndOnDisk(t *testing.T) {
	vc := clock.NewVirtual(epoch)
	db, err := oodb.Open(oodb.Options{Dir: t.TempDir(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	river := oodb.NewClass("River", oodb.Attr{Name: "level", Type: oodb.TInt}, oodb.Attr{Name: "temp", Type: oodb.TFloat})
	river.Monitored = true
	river.Method("updateWaterLevel", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "level", args[0])
	})
	river.Method("getWaterTemp", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return ctx.GetFloat(self, "temp")
	})
	reactor := oodb.NewClass("Reactor", oodb.Attr{Name: "heatOutput", Type: oodb.TFloat}, oodb.Attr{Name: "plannedPower", Type: oodb.TFloat})
	reactor.Monitored = true
	reactor.Method("getHeatOutput", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return ctx.GetFloat(self, "heatOutput")
	})
	reactor.Method("reducePlannedPower", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		frac, _ := args[0].(float64)
		p, _ := ctx.GetFloat(self, "plannedPower")
		return nil, ctx.Set(self, "plannedPower", p*(1-frac))
	})
	db.Dictionary().Register(river)
	db.Dictionary().Register(reactor)
	e := eca.New(db, eca.Options{})
	defer e.Close()

	tx := db.Begin()
	riverObj, _ := db.NewObject(tx, "River")
	db.Set(tx, riverObj, "temp", 30.0)
	reactorObj, _ := db.NewObject(tx, "Reactor")
	db.Set(tx, reactorObj, "heatOutput", 1_500_000.0)
	db.Set(tx, reactorObj, "plannedPower", 800.0)
	if err := db.SetRoot(tx, "BlockA", reactorObj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(e, waterLevelRule)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Stop()

	tx2 := db.Begin()
	db.Invoke(tx2, riverObj, "updateWaterLevel", int64(20))
	tx2.Commit()
	tx3 := db.Begin()
	if v, _ := db.Get(tx3, reactorObj, "plannedPower"); v != 760.0 {
		t.Fatalf("plannedPower = %v, want 760", v)
	}
	tx3.Commit()
}

func TestParseWaterLevelShape(t *testing.T) {
	decls, err := Parse(waterLevelRule)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 1 {
		t.Fatalf("parsed %d rules, want 1", len(decls))
	}
	d := decls[0]
	if d.Name != "WaterLevel" || d.Prio != 5 {
		t.Fatalf("name/prio = %s/%d", d.Name, d.Prio)
	}
	if len(d.Decls) != 3 {
		t.Fatalf("decls = %v", d.Decls)
	}
	if d.Decls[0].Class != "River" || !d.Decls[0].Ptr || d.Decls[0].Name != "river" {
		t.Fatalf("decl[0] = %+v", d.Decls[0])
	}
	if d.Decls[1].Class != "int" || d.Decls[1].Name != "x" || !d.Decls[1].IsScalar() {
		t.Fatalf("decl[1] = %+v", d.Decls[1])
	}
	if d.Decls[2].Named != "BlockA" {
		t.Fatalf("decl[2] = %+v", d.Decls[2])
	}
	me, ok := d.Event.(MethodEvent)
	if !ok || !me.After || me.Recv != "river" || me.Method != "updateWaterLevel" ||
		len(me.Params) != 1 || me.Params[0] != "x" {
		t.Fatalf("event = %+v", d.Event)
	}
	if d.CondMode != "imm" || d.ActionMode != "imm" {
		t.Fatalf("modes = %q/%q", d.CondMode, d.ActionMode)
	}
	if d.Cond == nil || len(d.Actions) != 1 {
		t.Fatal("cond/actions missing")
	}
}

func TestParseCompositeEvents(t *testing.T) {
	src := `
rule Chain {
    decl Sensor *a, Sensor *b;
    event seq(after a->ping(), not(after a->reset()), after b->ping());
    policy recent;
    scope global;
    validity 30s;
    action detached a->ping();
};
rule Counter {
    decl Sensor *s;
    event times(3, after s->ping());
    action deferred s->reset();
};
rule Either {
    decl Sensor *s;
    event or(after s->ping(), before s->reset());
    action detached s->ping();
};
rule AllOfThem {
    decl Sensor *s;
    event closure(after s->ping());
    action deferred s->reset();
};
`
	decls, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 4 {
		t.Fatalf("parsed %d rules", len(decls))
	}
	seq, ok := decls[0].Event.(SeqEvent)
	if !ok || len(seq.Sub) != 3 {
		t.Fatalf("Chain event = %+v", decls[0].Event)
	}
	if _, ok := seq.Sub[1].(NotEvent); !ok {
		t.Fatalf("Chain middle = %+v", seq.Sub[1])
	}
	if decls[0].Policy != "recent" || decls[0].Scope != "global" || decls[0].Validity != 30*time.Second {
		t.Fatalf("Chain attrs = %+v", decls[0])
	}
	if tim, ok := decls[1].Event.(TimesEvent); !ok || tim.N != 3 {
		t.Fatalf("Counter event = %+v", decls[1].Event)
	}
	if _, ok := decls[2].Event.(OrEvent); !ok {
		t.Fatalf("Either event = %+v", decls[2].Event)
	}
	if _, ok := decls[3].Event.(CloseEvent); !ok {
		t.Fatalf("AllOfThem event = %+v", decls[3].Event)
	}
}

func TestParseTemporalAndTxnEvents(t *testing.T) {
	src := `
rule Nightly {
    event every 24h;
    action detached abort "placeholder";
};
rule OnCommit {
    event commit;
    action detached abort "x";
};
rule StateWatch {
    decl River *r;
    event update of River.level;
    action deferred r->getWaterTemp();
};
rule Deadline {
    event at "1995-03-07T12:00:00Z";
    action detached abort "deadline";
};
rule Soon {
    event in 90s;
    action detached abort "soon";
};
`
	decls, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if te := decls[0].Event.(TimeEvent); te.Kind != "every" || te.Period != 24*time.Hour {
		t.Fatalf("Nightly = %+v", te)
	}
	if te := decls[1].Event.(TxnEvent); te.Phase != "commit" {
		t.Fatalf("OnCommit = %+v", te)
	}
	if se := decls[2].Event.(StateEvent); se.Class != "River" || se.Attr != "level" {
		t.Fatalf("StateWatch = %+v", se)
	}
	if te := decls[3].Event.(TimeEvent); te.Kind != "at" || te.At.IsZero() {
		t.Fatalf("Deadline = %+v", te)
	}
	if te := decls[4].Event.(TimeEvent); te.Kind != "in" || te.Period != 90*time.Second {
		t.Fatalf("Soon = %+v", te)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`rule {}`,
		`rule R { }`,                         // no event/action
		`rule R { event after x->m(); }`,     // no action
		`rule R { action detached a->m(); }`, // no event
		`rule R { prio "high"; event commit; action detached a->m(); }`, // bad prio
		`rule R { event after x->m; action detached a->m(); }`,          // missing parens
		`rule R { bogus 5; event commit; action detached a->m(); }`,     // unknown clause
		`rule R { event at "not-a-time"; action detached a->m(); }`,
		`rule R { validity fast; event commit; action detached a->m(); }`,
		`rule R { event commit; action detached a->m() }`, // missing ;
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: Parse accepted %q", i, src)
		}
	}
}

func TestCompositeRuleThroughDSL(t *testing.T) {
	e, db, _ := newPlant(t)
	tx := db.Begin()
	riverObj, _ := db.NewObject(tx, "River")
	db.Set(tx, riverObj, "temp", 20.0)
	tx.Commit()

	// Two level updates in one transaction trigger the deferred rule.
	src := `
rule DoubleUpdate {
    decl River *r, int x, River *r2, int y;
    event seq(after r->updateWaterLevel(x), after r2->updateWaterLevel(y));
    cond deferred x > y;
    action deferred r->getWaterTemp();
};
`
	loaded, err := Load(e, src)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Stop()
	if len(loaded.Composites) != 1 {
		t.Fatalf("composites = %d, want 1", len(loaded.Composites))
	}

	var fired atomic.Int64
	// Wrap: count invocations of getWaterTemp via an extra rule.
	e.AddRule(&eca.Rule{
		Name:       "count",
		EventKey:   "method:River.getWaterTemp:after",
		ActionMode: eca.Detached,
		Action:     func(*eca.RuleCtx) error { fired.Add(1); return nil },
	})

	tx2 := db.Begin()
	db.Invoke(tx2, riverObj, "updateWaterLevel", int64(50))
	db.Invoke(tx2, riverObj, "updateWaterLevel", int64(10))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	e.WaitDetached()
	if fired.Load() != 1 {
		t.Fatalf("composite DSL rule fired %d times, want 1", fired.Load())
	}

	// Descending condition false: x < y.
	tx3 := db.Begin()
	db.Invoke(tx3, riverObj, "updateWaterLevel", int64(10))
	db.Invoke(tx3, riverObj, "updateWaterLevel", int64(50))
	tx3.Commit()
	e.WaitDetached()
	if fired.Load() != 1 {
		t.Fatalf("condition x>y did not filter: fired = %d", fired.Load())
	}
}

func TestTemporalRuleThroughDSL(t *testing.T) {
	e, db, vc := newPlant(t)
	tx := db.Begin()
	riverObj, _ := db.NewObject(tx, "River")
	db.SetRoot(tx, "Rhine", riverObj)
	tx.Commit()

	src := `
rule Sample {
    decl River *r named "Rhine";
    event every 10s;
    action detached set r.level = r.level + 1;
};
`
	loaded, err := Load(e, src)
	if err != nil {
		if strings.Contains(err.Error(), "persist") {
			t.Skip("needs persistent roots")
		}
		t.Fatal(err)
	}
	defer loaded.Stop()
	vc.Advance(35 * time.Second)
	// The three firings read and then write the same river, so two of
	// them can deadlock on the lock upgrade; the victim retries after a
	// backoff on the engine's clock, which is virtual here. Keep that
	// clock moving, short of the next 10 s tick, until all have run.
	done := make(chan struct{})
	go func() { e.WaitDetached(); close(done) }()
	for moved := time.Duration(0); ; moved += 10 * time.Millisecond {
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
			if moved >= 4*time.Second {
				t.Fatalf("detached firings still running after %v of virtual retry time", moved)
			}
			vc.Advance(10 * time.Millisecond)
			continue
		}
		break
	}
	tx2 := db.Begin()
	if v, _ := db.Get(tx2, riverObj, "level"); v != int64(3) {
		t.Fatalf("level = %v, want 3 (three periods)", v)
	}
	tx2.Commit()
	loaded.Stop()
	vc.Advance(time.Minute)
	e.WaitDetached()
	tx3 := db.Begin()
	if v, _ := db.Get(tx3, riverObj, "level"); v != int64(3) {
		t.Fatalf("level = %v after Stop, want 3", v)
	}
	tx3.Commit()
}

func TestAbortActionVetoes(t *testing.T) {
	e, db, _ := newPlant(t)
	tx := db.Begin()
	riverObj, _ := db.NewObject(tx, "River")
	tx.Commit()

	src := `
rule Guard {
    decl River *r, int x;
    event before r->updateWaterLevel(x);
    cond imm x < 0;
    action imm abort "negative water level";
};
`
	loaded, err := Load(e, src)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Stop()
	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, riverObj, "updateWaterLevel", int64(-5)); err == nil {
		t.Fatal("negative update not vetoed")
	}
	if _, err := db.Invoke(tx2, riverObj, "updateWaterLevel", int64(5)); err != nil {
		t.Fatalf("positive update vetoed: %v", err)
	}
	tx2.Commit()
}

// TestLoadRejectsBadAdmission pins that Load admits nothing the vet
// pass rejects.
func TestLoadRejectsBadAdmission(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"temporal event, immediate coupling (Table 1)",
			`rule Bad { event every 5s; action imm abort "x"; };`,
			"Table 1"},
		{"unknown consumption policy",
			`rule Bad { decl River *r, int x, int y; event seq(after r->updateWaterLevel(x), after r->updateWaterLevel(y)); policy bogus; action deferred abort "x"; };`,
			`unknown consumption policy "bogus"`},
		{"timeout on an immediate rule",
			`rule Bad { decl River *r, int x; event after r->updateWaterLevel(x); timeout 1s; action imm abort "x"; };`,
			"timeout clause applies only to detached-coupled rules"},
		{"undeclared variable in the condition",
			`rule Bad { decl River *r, int x; event after r->updateWaterLevel(x); cond imm y > 0; action imm abort "x"; };`,
			`undeclared variable "y"`},
		{"policy on a primitive event",
			`rule Bad { decl River *r, int x; event after r->updateWaterLevel(x); policy recent; action imm abort "x"; };`,
			"apply only to composite events"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, _, _ := newPlant(t)
			loaded, err := Load(e, c.src)
			if err == nil {
				loaded.Stop()
				t.Fatal("rule admitted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want it to mention %q", err, c.want)
			}
			if n := e.Composites(); n != 0 {
				t.Fatalf("%d composites defined by a refused rule set", n)
			}
		})
	}
}

func TestExpressionEvaluation(t *testing.T) {
	cases := []struct {
		expr string
		want any
	}{
		{"1 + 2 * 3", int64(7)},
		{"(1 + 2) * 3", int64(9)},
		{"10 / 4", int64(2)},
		{"10.0 / 4", 2.5},
		{"7 % 3", int64(1)},
		{"-3 + 5", int64(2)},
		{"1 < 2 and 2 < 3", true},
		{"1 > 2 or 3 > 2", true},
		{"not (1 == 1)", false},
		{"1 != 2", true},
		{"2 == 2.0", true},
		{`"abc" + "def" == "abcdef"`, true},
		{`"a" < "b"`, true},
		{"true and not false", true},
	}
	for _, c := range cases {
		src := "rule T { event commit; cond detached " + c.expr + "; action detached abort \"x\"; };"
		decls, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		ev := &env{}
		got, err := ev.eval(decls[0].Cond)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got != c.want {
			t.Errorf("%s = %v (%T), want %v", c.expr, got, got, c.want)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	bad := []string{
		"1 / 0",
		"7 % 0",
		`1 + "x"`,
		"not 5",
		"unboundVar > 3",
		"true < false",
	}
	for _, expr := range bad {
		src := "rule T { event commit; cond detached " + expr + "; action detached abort \"x\"; };"
		decls, err := Parse(src)
		if err != nil {
			t.Fatalf("%s did not parse: %v", expr, err)
		}
		ev := &env{}
		if _, err := ev.eval(decls[0].Cond); err == nil {
			t.Errorf("%s evaluated without error", expr)
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`rule R // comment
{ prio 5; decl A *a named "x\"y"; validity 1.5s; } # trailing`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("no EOF token")
	}
	// Find the string literal and duration.
	var sawString, sawDuration bool
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == `x"y` {
			sawString = true
		}
		if tk.kind == tokDuration && tk.dval == 1500*time.Millisecond {
			sawDuration = true
		}
	}
	if !sawString || !sawDuration {
		t.Fatalf("string/duration lexing failed: %v", toks)
	}
	if _, err := lex(`"unterminated`); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("@"); err == nil {
		t.Fatal("bad character accepted")
	}
}
