package eca

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// Table 1, "Composite n TXs": a causally coupled rule commits only if
// all of its trigger transactions commit (parallel, sequential) or all
// abort (exclusive). The promise must hold however many transactions
// resolved between the constituents.
func TestCausalCouplingAfterOutcomeEviction(t *testing.T) {
	for _, mode := range []Coupling{DetachedParallelCausal, DetachedSequentialCausal, DetachedExclusiveCausal} {
		for _, firstCommits := range []bool{true, false} {
			for _, gap := range []int{10, 9000} {
				// The second trigger commits for the modes that want
				// commits and aborts for the one that wants aborts, so the
				// first trigger alone decides the outcome.
				secondCommits := mode != DetachedExclusiveCausal
				want := firstCommits == secondCommits
				outcome := "aborted"
				if firstCommits {
					outcome = "committed"
				}
				t.Run(fmt.Sprintf("%v/first-%s/gap-%d", mode, outcome, gap), func(t *testing.T) {
					if got := causalRuleCommits(t, mode, firstCommits, secondCommits, gap); got != want {
						t.Fatalf("rule committed = %v, want %v", got, want)
					}
				})
			}
		}
	}
}

// causalRuleCommits runs a global Seq(ping; reset) whose constituents
// come from two trigger transactions with gap committed transactions
// between them, and reports whether its causally coupled rule committed.
func causalRuleCommits(t *testing.T, mode Coupling, firstCommits, secondCommits bool, gap int) bool {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	comp := seqComposite("old-trigger", algebra.ScopeGlobal)
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	ruleTxns := make(chan *txn.Txn, 1)
	if err := e.AddRule(&Rule{Name: "causal", EventKey: comp.Key(), ActionMode: mode,
		Action: func(rc *RuleCtx) error {
			ruleTxns <- rc.Txn
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	resolve := func(tx *txn.Txn, commit bool) {
		if !commit {
			tx.Abort()
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	first := db.Begin()
	if _, err := db.Invoke(first, obj, "ping", int64(1)); err != nil {
		t.Fatal(err)
	}
	resolve(first, firstCommits)
	for i := 0; i < gap; i++ {
		if err := db.Begin().Commit(); err != nil {
			t.Fatal(err)
		}
	}
	second := db.Begin()
	if _, err := db.Invoke(second, obj, "reset"); err != nil {
		t.Fatal(err)
	}
	resolve(second, secondCommits)
	e.DrainComposers()
	e.WaitDetached()
	if e.Stats().CompositesDetected != 1 {
		t.Fatalf("composite detected %d times, want 1", e.Stats().CompositesDetected)
	}
	select {
	case rt := <-ruleTxns:
		return rt.Wait() == txn.Committed
	default:
		return false // vetoed or never started
	}
}

// Two composites share the primitive ping. The one whose root passes
// ping through (a disjunction) must not rename it under the other one,
// which runs on its own goroutine: under the race detector the rename
// was a data race, under synchronous composition it hid ping from the
// sequence.
func TestCompositesShareConstituent(t *testing.T) {
	for _, sync := range []bool{true, false} {
		name := "async"
		if sync {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			e, db, _ := newTestEngine(t, Options{SyncComposition: sync})
			obj := newSensor(t, db)
			either := &algebra.Composite{Name: "either", Policy: algebra.Chronicle, Scope: algebra.ScopeTransaction,
				Expr: algebra.Disj{Exprs: []algebra.Expr{algebra.Prim{Key: pingKey()}, algebra.Prim{Key: resetKey()}}}}
			pair := seqComposite("pair", algebra.ScopeTransaction)
			var eithers, pairs atomic.Int64
			for _, c := range []struct {
				comp  *algebra.Composite
				count *atomic.Int64
				parts int
			}{{either, &eithers, 1}, {pair, &pairs, 2}} {
				if err := e.DefineComposite(c.comp); err != nil {
					t.Fatal(err)
				}
				if err := e.AddRule(&Rule{Name: "on-" + c.comp.Name, EventKey: c.comp.Key(), ActionMode: Deferred,
					Action: func(rc *RuleCtx) error {
						c.count.Add(1)
						if rc.Trigger.SpecKey != c.comp.Key() {
							t.Errorf("%s fired with a %s trigger", c.comp.Name, rc.Trigger.SpecKey)
						}
						flat := rc.Trigger.Flatten()
						if len(flat) != c.parts {
							t.Errorf("%s completed over %d constituents, want %d", c.comp.Name, len(flat), c.parts)
						}
						for _, p := range flat {
							if p.Kind != event.KindMethod || (p.SpecKey != pingKey() && p.SpecKey != resetKey()) {
								t.Errorf("%s constituent renamed to %s/%v", c.comp.Name, p.SpecKey, p.Kind)
							}
						}
						return nil
					}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				tx := db.Begin()
				if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Invoke(tx, obj, "reset"); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if eithers.Load() != 40 || pairs.Load() != 20 {
				t.Fatalf("either fired %d times, pair %d; want 40 and 20", eithers.Load(), pairs.Load())
			}
		})
	}
}

// EOT visits only the composers its transaction fed. Composite B's
// goroutine is held: B has an immediate rule (admitted under
// AllowUnsafeImmediateComposite), which runs on B's goroutine and blocks.
// Transactions that never fed B must not wait for it.
func TestEOTSkipsUnfedComposers(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{AllowUnsafeImmediateComposite: true})
	valve := oodb.NewClass("Valve", oodb.Attr{Name: "val", Type: oodb.TInt})
	valve.Monitored = true
	for _, m := range []string{"ping", "reset"} {
		valve.Method(m, func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
			return nil, ctx.Set(self, "val", int64(len(args)))
		})
	}
	if err := db.Dictionary().Register(valve); err != nil {
		t.Fatal(err)
	}
	sensor := newSensor(t, db)
	setup := db.Begin()
	v, err := db.NewObject(setup, "Valve")
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	compA := seqComposite("a", algebra.ScopeTransaction)
	compB := &algebra.Composite{Name: "b", Policy: algebra.Chronicle, Scope: algebra.ScopeTransaction,
		Expr: algebra.Seq{Exprs: []algebra.Expr{
			algebra.Prim{Key: event.MethodSpec{Class: "Valve", Method: "ping", When: event.After}.Key()},
			algebra.Prim{Key: event.MethodSpec{Class: "Valve", Method: "reset", When: event.After}.Key()},
		}}}
	var firedA atomic.Int64
	held, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	for _, r := range []struct {
		comp *algebra.Composite
		rule *Rule
	}{
		{compA, &Rule{Name: "onA", EventKey: compA.Key(), ActionMode: Deferred,
			Action: func(*RuleCtx) error { firedA.Add(1); return nil }}},
		{compB, &Rule{Name: "onB", EventKey: compB.Key(), ActionMode: Immediate,
			Action: func(*RuleCtx) error {
				close(held)
				<-release
				return nil
			}}},
	} {
		if err := e.DefineComposite(r.comp); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRule(r.rule); err != nil {
			t.Fatal(err)
		}
	}
	go func() { // stalls in its reset until release
		tx := db.Begin()
		db.Invoke(tx, v, "ping", int64(1))
		db.Invoke(tx, v, "reset")
		tx.Commit()
	}()

	bound := time.After(5 * time.Second)
	within := func(what string, run func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-bound:
			buf := make([]byte, 1<<20)
			t.Fatalf("%s did not finish while composer b was held:\n%s", what, buf[:runtime.Stack(buf, true)])
		}
	}
	select {
	case <-held:
	case <-bound:
		t.Fatal("composer b never ran its rule")
	}

	within("a transaction that fed only a", func() error {
		tx := db.Begin()
		if _, err := db.Invoke(tx, sensor, "ping", int64(1)); err != nil {
			return err
		}
		if _, err := db.Invoke(tx, sensor, "reset"); err != nil {
			return err
		}
		return tx.Commit()
	})
	if firedA.Load() != 1 {
		t.Fatalf("a's deferred rule fired %d times, want 1", firedA.Load())
	}
	within("a read-only transaction", func() error {
		tx := db.Begin()
		if _, err := db.Get(tx, sensor, "val"); err != nil {
			return err
		}
		return tx.Commit()
	})
	within("an aborting transaction", func() error {
		tx := db.Begin()
		if _, err := db.Invoke(tx, sensor, "ping", int64(2)); err != nil {
			return err
		}
		return tx.Abort()
	})
}

// A temporal occurrence joins a transaction's composition only if it was
// raised after the transaction's first occurrence there. The raiser
// creates a transaction's composer before queueing its delivery, so a
// tick already queued on a held composer must not open the Seq(tick;
// ping) of a transaction whose first ping is queued behind it. The
// composer is held by its own immediate rule (admitted under
// AllowUnsafeImmediateComposite), which runs on its goroutine.
func TestTemporalSkipsLaterTransactionsComposer(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{AllowUnsafeImmediateComposite: true})
	sensor, other := newSensor(t, db), newSensor(t, db) // tx0 holds sensor's lock
	tick := event.TemporalSpec{Name: "tick", Temporal: event.Periodic, Period: time.Second}
	comp := &algebra.Composite{Name: "tick-ping", Policy: algebra.Chronicle, Scope: algebra.ScopeTransaction,
		Expr: algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: tick.Key()}, algebra.Prim{Key: pingKey()}}}}
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	held, release := make(chan struct{}), make(chan struct{})
	if err := e.AddRule(&Rule{Name: "hold", EventKey: comp.Key(), ActionMode: Immediate,
		Action: func(*RuleCtx) error {
			if fired.Add(1) == 1 {
				close(held)
				<-release
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	cm := e.composites[comp.Key()]
	e.mu.RUnlock()
	bound := time.After(5 * time.Second)
	wait := func(what string, ready func() bool) {
		t.Helper()
		for !ready() {
			select {
			case <-bound:
				t.Fatalf("timed out waiting for %s", what)
			case <-time.After(time.Millisecond):
			}
		}
	}

	// tx0 completes tick;ping, and the rule holds the composer.
	tx0 := db.Begin()
	if _, err := db.Invoke(tx0, sensor, "ping", int64(0)); err != nil {
		t.Fatal(err)
	}
	e.emitTemporal(tick, 0)
	done := make(chan error, 3)
	go func() { _, err := db.Invoke(tx0, sensor, "ping", int64(1)); done <- err }()
	wait("the rule to hold the composer", func() bool { return fired.Load() == 1 })
	<-held

	// A tick queues behind the held composer, then tx1's first ping.
	go func() { e.emitTemporal(tick, 0); done <- nil }()
	wait("the tick to queue", func() bool { return len(cm.in) == 1 })
	tx1 := db.Begin()
	go func() { _, err := db.Invoke(tx1, other, "ping", int64(2)); done <- err }()
	wait("tx1's ping to queue", func() bool { return len(cm.in) == 2 })
	close(release)
	for range 3 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for _, tx := range []*txn.Txn{tx1, tx0} {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("tick-ping completed %d times, want 1: the tick queued before tx1's ping joined tx1's composition", n)
	}

	// A tick raised before tx2's first ping but processed after it
	// stays out as well.
	early := &event.Instance{SpecKey: tick.Key(), Kind: event.KindTemporal}
	e.stamp(early)
	tx2 := db.Begin()
	if _, err := db.Invoke(tx2, other, "ping", int64(3)); err != nil {
		t.Fatal(err)
	}
	e.Consume(early)
	if _, err := db.Invoke(tx2, other, "ping", int64(4)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("tick-ping completed %d times, want 1: the tick raised before tx2's ping joined tx2's composition", n)
	}
}

// TestNoComposerOutlivesItsTransaction pins the life-span rule of a
// transaction-scoped composer (§3.3): it ends with its transaction,
// also when a deferred rule raised a constituent after the EOT flush.
// A deferred rule on ping invokes reset, the first step of a
// transaction-scoped Seq(reset; reset) that never completes.
func TestNoComposerOutlivesItsTransaction(t *testing.T) {
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			e, db, _ := newTestEngine(t, Options{SyncComposition: sync})
			obj := newSensor(t, db)
			comp := &algebra.Composite{Name: "resets", Policy: algebra.Chronicle, Scope: algebra.ScopeTransaction,
				Expr: algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: resetKey()}, algebra.Prim{Key: resetKey()}}}}
			if err := e.DefineComposite(comp); err != nil {
				t.Fatal(err)
			}
			if err := e.AddRule(&Rule{Name: "resetter", EventKey: pingKey(), ActionMode: Deferred,
				Action: func(rc *RuleCtx) error {
					obj, err := rc.Ctx().Load(oodb.OID(rc.Trigger.OID))
					if err != nil {
						return err
					}
					_, err = rc.Ctx().Invoke(obj, "reset")
					return err
				}}); err != nil {
				t.Fatal(err)
			}
			cm := e.composites[comp.Key()]
			for i := 0; i < 5; i++ {
				tx := db.Begin()
				if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				e.DrainComposers()
				cm.mu.Lock()
				live := len(cm.perTxn)
				cm.mu.Unlock()
				if live != 0 {
					t.Fatalf("after commit %d: %d transaction composers still live", i+1, live)
				}
				if n := e.SemiComposed(); n != 0 {
					t.Fatalf("after commit %d: %d semi-composed occurrences held", i+1, n)
				}
			}
		})
	}
}

// TestComposerBackpressureCounted: a delivery that finds its composer's
// channel full stalls until the composer drains it, and counts in
// reach_composer_backpressure_total. With a one-slot channel and the
// composer held on its first occurrence, the third of three deliveries
// must stall; the second stalls too if it arrives before the composer
// took the first.
func TestComposerBackpressureCounted(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{ComposerBuffer: 1})
	obj := newSensor(t, db)
	comp := seqComposite("bp", algebra.ScopeGlobal)
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	cm := e.composites[comp.Key()]
	cm.mu.Lock() // the composer goroutine stalls in process
	raised := make(chan error, 1)
	go func() {
		for i := int64(1); i <= 3; i++ {
			tx := db.Begin()
			if _, err := db.Invoke(tx, obj, "ping", i); err != nil {
				raised <- err
				return
			}
			if err := tx.Commit(); err != nil {
				raised <- err
				return
			}
		}
		raised <- nil
	}()
	bound := time.After(5 * time.Second)
	for e.met.backpressure.Value() == 0 {
		select {
		case <-bound:
			cm.mu.Unlock()
			t.Fatal("no delivery stalled on the full composer channel")
		case <-time.After(time.Millisecond):
		}
	}
	cm.mu.Unlock()
	if err := <-raised; err != nil {
		t.Fatal(err)
	}
	if got := e.met.backpressure.Value(); got < 1 || got > 2 {
		t.Fatalf("reach_composer_backpressure_total = %d, want 1 or 2", got)
	}
}
