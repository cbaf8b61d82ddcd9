package eca

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algebra"
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

// BenchmarkFireImmediate8Parallel runs the BenchmarkFireImmediate8 body
// on every P at once, each goroutine on an object of its own, so the
// transactions share no lock: what they still share is the engine's
// and the transaction manager's metric series, whose cache lines the
// single-goroutine benchmark never contends for.
func BenchmarkFireImmediate8Parallel(b *testing.B) {
	_, db, _ := benchEngine(b, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tx := db.Begin()
		obj, err := db.NewObject(tx, "Sensor")
		if err != nil {
			b.Error(err)
			return
		}
		if err := tx.Commit(); err != nil {
			b.Error(err)
			return
		}
		for i := 0; pb.Next(); i++ {
			tx := db.Begin()
			if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
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

// BenchmarkTxnScopedComposition is the plant-composite shape: begin,
// three calls feeding a transaction-scoped three-step sequence whose
// deferred rule fires at EOT, commit.
func BenchmarkTxnScopedComposition(b *testing.B) {
	e, db, obj := benchEngine(b, 0, false)
	tri := &algebra.Composite{Name: "tri", Policy: algebra.Chronicle, Scope: algebra.ScopeTransaction,
		Expr: algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: pingKey()}, algebra.Prim{Key: pingKey()}, algebra.Prim{Key: pingKey()}}}}
	if err := e.DefineComposite(tri); err != nil {
		b.Fatal(err)
	}
	fired := 0
	if err := e.AddRule(&Rule{Name: "trend", EventKey: tri.Key(), ActionMode: Deferred,
		Action: func(*RuleCtx) error { fired++; return nil }}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		for j := 0; j < 3; j++ {
			if _, err := db.Invoke(tx, obj, "ping", int64(j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("trend fired %d times in %d transactions", fired, b.N)
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

	// One immediate rule whose condition is false: nothing. The set's
	// array, which holds the firing's rule context and subtransaction,
	// comes from the free list and goes back to it.
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
	if n := testing.AllocsPerRun(100, fire); n != 0 {
		t.Errorf("one immediate rule, condition false: %.0f allocations, want 0", n)
	}
	if tx.Status() != txn.Active {
		t.Fatal("triggering transaction did not survive")
	}

	// Eight immediate rules that fire, each loading the trigger's object:
	// no array for the set, no per-firing context or subtransaction, no
	// engine state for the transaction (it comes from its pool).
	fire8 := fireImmediate8(t)
	i := 0
	body := func() { fire8(i); i++ }
	// The race detector makes sync.Pool drop a quarter of its puts, so
	// there the pooled state and event instances add up to about one
	// allocation the path does not make.
	ceiling := 5.0
	if raceEnabled {
		ceiling = 6
	}
	if n := testing.AllocsPerRun(100, body); n > ceiling {
		t.Errorf("BenchmarkFireImmediate8 body: %.0f allocations, ceiling %.0f", n, ceiling)
	}

	// And in bytes: the eight firings' set (8 × 496 bytes) alone would
	// break the ceiling, and so would a 704-byte txnState per
	// transaction. The race detector makes sync.Pool drop puts, so the
	// event instances' and states' bytes are not the path's own there.
	if raceEnabled {
		return
	}
	const txns = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range txns {
		body()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / txns; b > 1280 {
		t.Errorf("BenchmarkFireImmediate8 body: %d bytes per transaction, ceiling 1280", b)
	}
}
