package eca

import (
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// Per-layer costs of the raise → fire → commit path, and the allocation
// ceilings that keep them from creeping back.

// benchEngine is newTestEngine for benchmarks (real clock), with rules
// immediate rules on ping whose conditions hold iff fire is set.
func benchEngine(tb testing.TB, rules int, fire bool) (*Engine, *oodb.DB, *oodb.Object) {
	tb.Helper()
	db, err := oodb.Open(oodb.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sensor := oodb.NewClass("Sensor", oodb.Attr{Name: "val", Type: oodb.TInt})
	sensor.Monitored = true
	sensor.Method("ping", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "val", args[0])
	})
	if err := db.Dictionary().Register(sensor); err != nil {
		tb.Fatal(err)
	}
	e := New(db, Options{})
	tb.Cleanup(e.Close)
	for i := 0; i < rules; i++ {
		if err := e.AddRule(&Rule{
			Name: fmt.Sprintf("r%d", i), EventKey: pingKey(), ActionMode: Immediate,
			Cond: func(*RuleCtx) (bool, error) { return fire, nil },
			Action: func(rc *RuleCtx) error {
				obj, err := rc.Ctx().Load(oodb.OID(rc.Trigger.OID))
				if err != nil {
					return err
				}
				_, err = rc.Ctx().Get(obj, "val") // a lock the tree already holds
				return err
			},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	tx := db.Begin()
	obj, err := db.NewObject(tx, "Sensor")
	if err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return e, db, obj
}

// fireImmediate8 is the plant-rules shape: one transaction, one
// monitored call, eight immediate rules each in its own subtransaction.
func fireImmediate8(tb testing.TB) func(i int) {
	_, db, obj := benchEngine(tb, 8, true)
	return func(i int) {
		tx := db.Begin()
		if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
			tb.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkFireImmediate8(b *testing.B) {
	fire := fireImmediate8(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire(i)
	}
}

// BenchmarkCommitNoEvents is a read-only transaction under an engine
// with rules on other events: BOT, EOT and commit find no listener, the
// commit hands no history over.
func BenchmarkCommitNoEvents(b *testing.B) {
	_, db, obj := benchEngine(b, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := db.Get(tx, obj, "val"); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryHandOff commits transactions that raised four events
// while 64 other ECA-managers hold full local rings: the hand-off must
// cost the four, not the 64 × 256.
func BenchmarkHistoryHandOff(b *testing.B) {
	e, db, obj := benchEngine(b, 1, false)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("method:Other.m%d:after", i)
		if err := e.AddRule(&Rule{Name: key, EventKey: key, ActionMode: Detached,
			Disabled: true, Action: func(*RuleCtx) error { return nil }}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 256; j++ {
			if err := e.Consume(&event.Instance{SpecKey: key, Kind: event.KindMethod}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		for j := 0; j < 4; j++ {
			if _, err := db.Invoke(tx, obj, "ping", int64(j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRaisePathAllocationCeilings(t *testing.T) {
	e, db, obj := benchEngine(t, 1, false)
	tx := db.Begin()
	defer tx.Abort()

	unheard := &event.Instance{SpecKey: "method:Sensor.nobody:after", Kind: event.KindMethod}
	if n := testing.AllocsPerRun(100, func() { _ = e.Consume(unheard) }); n != 0 {
		t.Errorf("Consume with no rules on the event: %.0f allocations, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		for _, phase := range []event.TxnPhase{event.BOT, event.EOT, event.Commit, event.Abort} {
			_ = e.emitTxnEvent(phase, tx)
		}
	}); n != 0 {
		t.Errorf("flow-control events with no listener: %.0f allocations, want 0", n)
	}

	// One immediate rule whose condition is false: the subtransaction and
	// the set's rule-context array, nothing per phase.
	in := &event.Instance{SpecKey: pingKey(), Kind: event.KindMethod, Txn: tx.ID(),
		OID: uint64(obj.OID()), Origin: tx}
	fire := func() {
		in.Seq, in.Trace, in.Depth = 0, 0, 0
		if err := e.Consume(in); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*256; i++ {
		fire() // every slot of the trace ring has its span array
	}
	if n := testing.AllocsPerRun(100, fire); n > 2 {
		t.Errorf("one immediate rule, condition false: %.0f allocations, ceiling 2", n)
	}
	if tx.Status() != txn.Active {
		t.Fatal("triggering transaction did not survive")
	}

	// Eight immediate rules that fire, each loading the trigger's object:
	// one rule-context array for the set, no per-firing context.
	fire8 := fireImmediate8(t)
	i := 0
	if n := testing.AllocsPerRun(100, func() { fire8(i); i++ }); n > 16 {
		t.Errorf("BenchmarkFireImmediate8 body: %.0f allocations, ceiling 16", n)
	}
}
