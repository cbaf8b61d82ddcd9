package eca

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

var epoch = time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC)

// newTestEngine builds an engine over an in-memory database with a
// monitored Sensor class and a virtual clock.
func newTestEngine(t *testing.T, opts Options) (*Engine, *oodb.DB, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(epoch)
	db, err := oodb.Open(oodb.Options{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	sensor := oodb.NewClass("Sensor",
		oodb.Attr{Name: "val", Type: oodb.TInt},
		oodb.Attr{Name: "alarms", Type: oodb.TInt},
	)
	sensor.Monitored = true
	sensor.Method("ping", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "val", args[0])
	})
	sensor.Method("reset", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "val", int64(0))
	})
	if err := db.Dictionary().Register(sensor); err != nil {
		t.Fatal(err)
	}
	e := New(db, opts)
	t.Cleanup(e.Close)
	return e, db, vc
}

func pingKey() string {
	return event.MethodSpec{Class: "Sensor", Method: "ping", When: event.After}.Key()
}

func resetKey() string {
	return event.MethodSpec{Class: "Sensor", Method: "reset", When: event.After}.Key()
}

func newSensor(t *testing.T, db *oodb.DB) *oodb.Object {
	t.Helper()
	tx := db.Begin()
	obj, err := db.NewObject(tx, "Sensor")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return obj
}

// --- Table 1 ---

func TestTable1MatchesPaper(t *testing.T) {
	// The paper's Table 1, row by row: Immediate, Deferred, Detached,
	// Par.caus.dep., Seq.caus.dep., Exc.caus.dep. × columns Single
	// Method, Purely Temporal, Composite 1 TX, Composite n TXs.
	want := map[Coupling][4]bool{
		Immediate:                {true, false, false, false},
		Deferred:                 {true, false, true, false},
		Detached:                 {true, true, true, true},
		DetachedParallelCausal:   {true, false, true, true},
		DetachedSequentialCausal: {true, false, true, true},
		DetachedExclusiveCausal:  {true, false, true, true},
	}
	cats := Categories()
	for mode, row := range want {
		for i, cat := range cats {
			if got := Supported(cat, mode); got != row[i] {
				t.Errorf("Supported(%v, %v) = %v, want %v", cat, mode, got, row[i])
			}
		}
	}
	if len(Couplings()) != 6 || len(cats) != 4 {
		t.Fatal("matrix dimensions wrong")
	}
}

func TestAdmissionRejectsPerTable1(t *testing.T) {
	e, _, _ := newTestEngine(t, Options{})
	// Purely temporal + immediate: rejected.
	spec := event.TemporalSpec{Name: "tick", Temporal: event.Periodic, Period: time.Second}
	err := e.AddRule(&Rule{
		Name: "r1", EventKey: spec.Key(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil },
	})
	if err == nil {
		t.Fatal("temporal+immediate admitted")
	}
	// Purely temporal + deferred: rejected.
	err = e.AddRule(&Rule{
		Name: "r2", EventKey: spec.Key(), ActionMode: Deferred,
		Action: func(*RuleCtx) error { return nil },
	})
	if err == nil {
		t.Fatal("temporal+deferred admitted")
	}
	// Purely temporal + detached: admitted.
	err = e.AddRule(&Rule{
		Name: "r3", EventKey: spec.Key(), ActionMode: Detached,
		Action: func(*RuleCtx) error { return nil },
	})
	if err != nil {
		t.Fatalf("temporal+detached rejected: %v", err)
	}

	// Composite single-txn + immediate: rejected (the "(N)" cell).
	comp := &algebra.Composite{
		Name:   "c1",
		Expr:   algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: pingKey()}, algebra.Prim{Key: resetKey()}}},
		Policy: algebra.Chronicle,
		Scope:  algebra.ScopeTransaction,
	}
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	err = e.AddRule(&Rule{
		Name: "r4", EventKey: comp.Key(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil },
	})
	if err == nil {
		t.Fatal("composite-1tx+immediate admitted")
	}
	// Composite single-txn + deferred: admitted.
	err = e.AddRule(&Rule{
		Name: "r5", EventKey: comp.Key(), ActionMode: Deferred,
		Action: func(*RuleCtx) error { return nil },
	})
	if err != nil {
		t.Fatalf("composite-1tx+deferred rejected: %v", err)
	}

	// Composite multi-txn + deferred: rejected; + parallel causal: admitted.
	gcomp := &algebra.Composite{
		Name:     "c2",
		Expr:     algebra.Conj{Exprs: []algebra.Expr{algebra.Prim{Key: pingKey()}, algebra.Prim{Key: resetKey()}}},
		Policy:   algebra.Chronicle,
		Scope:    algebra.ScopeGlobal,
		Validity: time.Hour,
	}
	if err := e.DefineComposite(gcomp); err != nil {
		t.Fatal(err)
	}
	err = e.AddRule(&Rule{
		Name: "r6", EventKey: gcomp.Key(), ActionMode: Deferred,
		Action: func(*RuleCtx) error { return nil },
	})
	if err == nil {
		t.Fatal("composite-ntx+deferred admitted")
	}
	err = e.AddRule(&Rule{
		Name: "r7", EventKey: gcomp.Key(), ActionMode: DetachedParallelCausal,
		Action: func(*RuleCtx) error { return nil },
	})
	if err != nil {
		t.Fatalf("composite-ntx+parallel-causal rejected: %v", err)
	}

	// Rule on an undefined composite: rejected.
	err = e.AddRule(&Rule{
		Name: "r8", EventKey: "composite:undefined", ActionMode: Detached,
		Action: func(*RuleCtx) error { return nil },
	})
	if err == nil {
		t.Fatal("rule on undefined composite admitted")
	}
}

// --- immediate coupling ---

func TestImmediateRuleRunsInline(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var fired atomic.Int64
	err := e.AddRule(&Rule{
		Name: "imm", EventKey: pingKey(), ActionMode: Immediate,
		Cond: func(rc *RuleCtx) (bool, error) {
			v, err := rc.Ctx().GetInt(obj, "val")
			return v > 10, err
		},
		Action: func(rc *RuleCtx) error {
			fired.Add(1)
			a, _ := rc.Ctx().GetInt(obj, "alarms")
			return rc.Ctx().Set(obj, "alarms", a+1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(5)); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 0 {
		t.Fatal("rule fired although condition false")
	}
	if _, err := db.Invoke(tx, obj, "ping", int64(50)); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("rule fired %d times, want 1 (inline)", fired.Load())
	}
	// The rule's subtransaction effect is visible inside the trigger.
	if v, _ := db.Get(tx, obj, "alarms"); v != int64(1) {
		t.Fatalf("alarms = %v, want 1", v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestImmediateRuleEffectsUndoneOnTriggerAbort(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	e.AddRule(&Rule{
		Name: "imm", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(rc *RuleCtx) error { return rc.Ctx().Set(obj, "alarms", int64(99)) },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Abort()
	tx2 := db.Begin()
	if v, _ := db.Get(tx2, obj, "alarms"); v != int64(0) {
		t.Fatalf("rule subtransaction effect survived trigger abort: alarms = %v", v)
	}
	tx2.Commit()
}

func TestImmediateRuleErrorVetoesInvocation(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	boom := errors.New("constraint violated")
	e.AddRule(&Rule{
		Name:       "guard",
		EventKey:   event.MethodSpec{Class: "Sensor", Method: "ping", When: event.Before}.Key(),
		ActionMode: Immediate,
		Action:     func(*RuleCtx) error { return boom },
	})
	tx := db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want veto", err)
	}
	if v, _ := db.Get(tx, obj, "val"); v != int64(0) {
		t.Fatalf("vetoed method still ran: val = %v", v)
	}
	tx.Commit()
}

// --- deferred coupling ---

func TestDeferredRuleRunsAtEOT(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var order []string
	e.AddRule(&Rule{
		Name: "def", EventKey: pingKey(), ActionMode: Deferred,
		Action: func(rc *RuleCtx) error {
			order = append(order, "rule")
			return rc.Ctx().Set(obj, "alarms", int64(7))
		},
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	order = append(order, "work")
	if len(order) != 1 {
		t.Fatal("deferred rule ran before EOT")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[1] != "rule" {
		t.Fatalf("order = %v, want [work rule]", order)
	}
	tx2 := db.Begin()
	if v, _ := db.Get(tx2, obj, "alarms"); v != int64(7) {
		t.Fatalf("deferred effect lost: %v", v)
	}
	tx2.Commit()
}

func TestDeferredRuleErrorAbortsTrigger(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	e.AddRule(&Rule{
		Name: "def", EventKey: pingKey(), ActionMode: Deferred,
		Action: func(*RuleCtx) error { return errors.New("integrity violated") },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(42))
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded despite deferred rule failure")
	}
	if tx.Status() != txn.Aborted {
		t.Fatalf("trigger status = %v, want Aborted", tx.Status())
	}
	tx2 := db.Begin()
	if v, _ := db.Get(tx2, obj, "val"); v != int64(0) {
		t.Fatalf("trigger effects survived: val = %v", v)
	}
	tx2.Commit()
}

// TestDeferredCascadeBounded drives unterminating deferred cascades:
// each firing queues another for the next EOT round, one cascade level
// deeper. The cascade-depth guard is their only bound — the ceiling,
// or a lower static bound — and the commit fails with ErrCascadeDepth
// after exactly that many firings.
func TestDeferredCascadeBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cond  Coupling
		bound int
		want  int
	}{
		{"deferred", Deferred, 0, maxCascadeDepth},
		{"imm-cond-def-action", Immediate, 0, maxCascadeDepth},
		{"static-bound", Deferred, 5, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, db, _ := newTestEngine(t, Options{})
			e.SetCascadeBound(tc.bound)
			obj := newSensor(t, db)
			fired := 0
			// The rule re-pings, generating another deferred firing, forever.
			if err := e.AddRule(&Rule{
				Name: "loop", EventKey: pingKey(),
				CondMode: tc.cond, ActionMode: Deferred,
				Action: func(rc *RuleCtx) error {
					fired++
					_, err := rc.Ctx().Invoke(obj, "ping", int64(1))
					return err
				},
			}); err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); !errors.Is(err, ErrCascadeDepth) {
				t.Fatalf("non-terminating deferred cascade: commit = %v, want ErrCascadeDepth", err)
			}
			if fired != tc.want {
				t.Fatalf("rule fired %d times, want %d", fired, tc.want)
			}
		})
	}
}

func TestImmediateCondDeferredAction(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var condVals []int64
	var actions atomic.Int64
	e.AddRule(&Rule{
		Name: "split", EventKey: pingKey(),
		CondMode: Immediate, ActionMode: Deferred,
		Cond: func(rc *RuleCtx) (bool, error) {
			v, err := rc.Ctx().GetInt(obj, "val")
			condVals = append(condVals, v)
			return v > 5, err
		},
		Action: func(*RuleCtx) error { actions.Add(1); return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(10)) // cond true -> action queued
	db.Invoke(tx, obj, "ping", int64(1))  // cond false -> nothing
	if actions.Load() != 0 {
		t.Fatal("deferred action ran before EOT")
	}
	tx.Commit()
	if len(condVals) != 2 {
		t.Fatalf("condition evaluated %d times immediately, want 2", len(condVals))
	}
	if actions.Load() != 1 {
		t.Fatalf("actions = %d, want 1", actions.Load())
	}
}

// --- detached couplings ---

func TestDetachedRuleIndependent(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	done := make(chan uint64, 1)
	e.AddRule(&Rule{
		Name: "det", EventKey: pingKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error {
			done <- rc.Txn.ID()
			return nil
		},
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Abort() // detached rule is unaffected
	select {
	case id := <-done:
		if id == tx.ID() {
			t.Fatal("detached rule ran inside the trigger transaction")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("detached rule never ran")
	}
	e.WaitDetached()
}

func TestParallelCausalAbortsWithTrigger(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	outcome := make(chan txn.Status, 1)
	e.AddRule(&Rule{
		Name: "pc", EventKey: pingKey(), ActionMode: DetachedParallelCausal,
		Action: func(rc *RuleCtx) error {
			go func() { outcome <- rc.Txn.Wait() }()
			return nil
		},
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Abort()
	select {
	case st := <-outcome:
		if st != txn.Aborted {
			t.Fatalf("parallel-causal rule txn = %v, want Aborted (trigger aborted)", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parallel-causal rule txn never resolved")
	}
	e.WaitDetached()
}

func TestParallelCausalCommitsWithTrigger(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	outcome := make(chan txn.Status, 1)
	e.AddRule(&Rule{
		Name: "pc", EventKey: pingKey(), ActionMode: DetachedParallelCausal,
		Action: func(rc *RuleCtx) error {
			go func() { outcome <- rc.Txn.Wait() }()
			return nil
		},
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Commit()
	select {
	case st := <-outcome:
		if st != txn.Committed {
			t.Fatalf("parallel-causal rule txn = %v, want Committed", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parallel-causal rule txn never resolved")
	}
	e.WaitDetached()
}

func TestSequentialCausalStartsAfterTriggerCommit(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	started := make(chan txn.Status, 1)
	trigDone := make(chan struct{})
	var trig *txn.Txn
	e.AddRule(&Rule{
		Name: "sc", EventKey: pingKey(), ActionMode: DetachedSequentialCausal,
		Action: func(rc *RuleCtx) error {
			<-trigDone // would deadlock if the rule started before commit returned
			started <- trig.Status()
			return nil
		},
	})
	trig = db.Begin()
	db.Invoke(trig, obj, "ping", int64(1))
	trig.Commit()
	close(trigDone)
	select {
	case st := <-started:
		if st != txn.Committed {
			t.Fatalf("sequential-causal rule saw trigger %v, want Committed", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sequential-causal rule never started")
	}
	e.WaitDetached()
}

func TestSequentialCausalSkippedOnTriggerAbort(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var ran atomic.Bool
	e.AddRule(&Rule{
		Name: "sc", EventKey: pingKey(), ActionMode: DetachedSequentialCausal,
		Action: func(*RuleCtx) error { ran.Store(true); return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Abort()
	e.WaitDetached()
	if ran.Load() {
		t.Fatal("sequential-causal rule ran although trigger aborted")
	}
}

func TestExclusiveCausalContingency(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	outcome := make(chan txn.Status, 2)
	e.AddRule(&Rule{
		Name: "ec", EventKey: pingKey(), ActionMode: DetachedExclusiveCausal,
		Action: func(rc *RuleCtx) error {
			go func() { outcome <- rc.Txn.Wait() }()
			return nil
		},
	})
	// Trigger aborts: contingency commits.
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Abort()
	if st := <-outcome; st != txn.Committed {
		t.Fatalf("exclusive-causal after trigger abort = %v, want Committed", st)
	}
	// Trigger commits: contingency aborts.
	tx2 := db.Begin()
	db.Invoke(tx2, obj, "ping", int64(1))
	tx2.Commit()
	if st := <-outcome; st != txn.Aborted {
		t.Fatalf("exclusive-causal after trigger commit = %v, want Aborted", st)
	}
	e.WaitDetached()
}

// --- composite events ---

func seqComposite(name string, scope algebra.Scope) *algebra.Composite {
	c := &algebra.Composite{
		Name:   name,
		Expr:   algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: pingKey()}, algebra.Prim{Key: resetKey()}}},
		Policy: algebra.Chronicle,
		Scope:  scope,
	}
	if scope == algebra.ScopeGlobal {
		c.Validity = time.Hour
	}
	return c
}

func TestCompositeDeferredRuleFiresAtEOT(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	comp := seqComposite("ping-reset", algebra.ScopeTransaction)
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	var parts atomic.Int64
	e.AddRule(&Rule{
		Name: "onComp", EventKey: comp.Key(), ActionMode: Deferred,
		Action: func(rc *RuleCtx) error {
			fired.Add(1)
			parts.Store(int64(len(rc.Trigger.Flatten())))
			return nil
		},
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	db.Invoke(tx, obj, "reset")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("composite rule fired %d, want 1", fired.Load())
	}
	if parts.Load() != 2 {
		t.Fatalf("composite trigger had %d parts, want 2", parts.Load())
	}
}

func TestCompositeSemiComposedDiscardedOnAbort(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	comp := seqComposite("pr", algebra.ScopeTransaction)
	e.DefineComposite(comp)
	var fired atomic.Int64
	e.AddRule(&Rule{
		Name: "onComp", EventKey: comp.Key(), ActionMode: Detached,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1)) // half the sequence
	tx.Abort()
	e.DrainComposers()
	if got := e.SemiComposed(); got != 0 {
		t.Fatalf("semi-composed after abort = %d, want 0", got)
	}
	// A reset in a NEW transaction must not pair with the aborted ping.
	tx2 := db.Begin()
	db.Invoke(tx2, obj, "reset")
	tx2.Commit()
	e.WaitDetached()
	if fired.Load() != 0 {
		t.Fatal("composite fired across transaction boundary in txn scope")
	}
}

func TestGlobalCompositeAcrossTxns(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	comp := seqComposite("global-pr", algebra.ScopeGlobal)
	e.DefineComposite(comp)
	fired := make(chan *event.Instance, 1)
	e.AddRule(&Rule{
		Name: "onComp", EventKey: comp.Key(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error {
			fired <- rc.Trigger
			return nil
		},
	})
	tx1 := db.Begin()
	db.Invoke(tx1, obj, "ping", int64(1))
	tx1.Commit()
	tx2 := db.Begin()
	db.Invoke(tx2, obj, "reset")
	tx2.Commit()
	e.DrainComposers()
	e.WaitDetached()
	select {
	case in := <-fired:
		txns := in.Transactions()
		if len(txns) != 2 {
			t.Fatalf("constituent txns = %v, want 2 distinct", txns)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cross-transaction composite never fired")
	}
}

func TestClosureCompositeFiresAtEOT(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	comp := &algebra.Composite{
		Name:   "all-pings",
		Expr:   algebra.Closure{Of: algebra.Prim{Key: pingKey()}},
		Policy: algebra.Chronicle,
		Scope:  algebra.ScopeTransaction,
	}
	e.DefineComposite(comp)
	var count atomic.Int64
	e.AddRule(&Rule{
		Name: "onClosure", EventKey: comp.Key(), ActionMode: Deferred,
		Action: func(rc *RuleCtx) error {
			count.Store(int64(len(rc.Trigger.Parts)))
			return nil
		},
	})
	tx := db.Begin()
	for i := 0; i < 4; i++ {
		db.Invoke(tx, obj, "ping", int64(i))
	}
	tx.Commit()
	if count.Load() != 4 {
		t.Fatalf("closure collapsed %d pings, want 4", count.Load())
	}
}

// --- temporal events ---

func TestPeriodicTemporalFiresDetached(t *testing.T) {
	e, _, vc := newTestEngine(t, Options{})
	spec := event.TemporalSpec{Name: "tick", Temporal: event.Periodic, Period: 10 * time.Second}
	var fired atomic.Int64
	if err := e.AddRule(&Rule{
		Name: "onTick", EventKey: spec.Key(), ActionMode: Detached,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	h, err := e.ArmTemporal(spec)
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(35 * time.Second)
	e.WaitDetached()
	if fired.Load() != 3 {
		t.Fatalf("periodic fired %d, want 3", fired.Load())
	}
	h.Stop()
	vc.Advance(time.Minute)
	e.WaitDetached()
	if fired.Load() != 3 {
		t.Fatal("periodic kept firing after Stop")
	}
}

func TestAbsoluteTemporal(t *testing.T) {
	e, _, vc := newTestEngine(t, Options{})
	spec := event.TemporalSpec{Name: "deadline", Temporal: event.Absolute, At: epoch.Add(time.Hour)}
	var fired atomic.Int64
	e.AddRule(&Rule{
		Name: "onDeadline", EventKey: spec.Key(), ActionMode: Detached,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	})
	if _, err := e.ArmTemporal(spec); err != nil {
		t.Fatal(err)
	}
	vc.Advance(59 * time.Minute)
	e.WaitDetached()
	if fired.Load() != 0 {
		t.Fatal("absolute temporal fired early")
	}
	vc.Advance(2 * time.Minute)
	e.WaitDetached()
	if fired.Load() != 1 {
		t.Fatalf("absolute temporal fired %d, want 1", fired.Load())
	}
	// Arming in the past is rejected.
	if _, err := e.ArmTemporal(event.TemporalSpec{Name: "past", Temporal: event.Absolute, At: epoch}); err == nil {
		t.Fatal("past absolute event armed")
	}
}

func TestMilestoneFiresWhenTxnLate(t *testing.T) {
	e, db, vc := newTestEngine(t, Options{})
	spec := event.TemporalSpec{Name: "m1", Temporal: event.MilestoneKind, Delay: 30 * time.Second}
	fired := make(chan uint64, 1)
	e.AddRule(&Rule{
		Name: "contingency", EventKey: spec.Key(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error {
			fired <- rc.Trigger.Args[0].(uint64)
			return nil
		},
	})
	// Late transaction: milestone fires with its id.
	late := db.Begin()
	if _, err := e.ArmMilestone(late, spec); err != nil {
		t.Fatal(err)
	}
	vc.Advance(time.Minute)
	e.WaitDetached()
	select {
	case id := <-fired:
		if id != late.ID() {
			t.Fatalf("milestone carried txn %d, want %d", id, late.ID())
		}
	default:
		t.Fatal("milestone did not fire for late transaction")
	}
	late.Commit()

	// On-time transaction: milestone reached, handle stopped.
	fast := db.Begin()
	h, _ := e.ArmMilestone(fast, spec)
	fast.Commit()
	h.Stop()
	vc.Advance(time.Minute)
	e.WaitDetached()
	select {
	case <-fired:
		t.Fatal("milestone fired for on-time transaction")
	default:
	}
}

// --- priorities and ordering ---

func TestPriorityOrdering(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var order []string
	mk := func(name string, prio int) *Rule {
		return &Rule{
			Name: name, EventKey: pingKey(), Priority: prio, ActionMode: Immediate,
			Action: func(*RuleCtx) error { order = append(order, name); return nil },
		}
	}
	e.AddRule(mk("low", 1))
	e.AddRule(mk("high", 10))
	e.AddRule(mk("mid", 5))
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Commit()
	if len(order) != 3 || order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Fatalf("firing order = %v, want [high mid low]", order)
	}
}

func TestTieBreakOldestAndNewestFirst(t *testing.T) {
	run := func(tb TieBreak) []string {
		e, db, _ := newTestEngine(t, Options{TieBreak: tb})
		obj := newSensor(t, db)
		var order []string
		for _, name := range []string{"first", "second", "third"} {
			name := name
			e.AddRule(&Rule{
				Name: name, EventKey: pingKey(), Priority: 5, ActionMode: Immediate,
				Action: func(*RuleCtx) error { order = append(order, name); return nil },
			})
		}
		tx := db.Begin()
		db.Invoke(tx, obj, "ping", int64(1))
		tx.Commit()
		return order
	}
	oldest := run(OldestFirst)
	if oldest[0] != "first" || oldest[2] != "third" {
		t.Fatalf("oldest-first order = %v", oldest)
	}
	newest := run(NewestFirst)
	if newest[0] != "third" || newest[2] != "first" {
		t.Fatalf("newest-first order = %v", newest)
	}
}

func TestRemoveRule(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var fired atomic.Int64
	e.AddRule(&Rule{
		Name: "r", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	})
	if !e.RemoveRule(pingKey(), "r") {
		t.Fatal("RemoveRule = false")
	}
	if e.RemoveRule(pingKey(), "r") {
		t.Fatal("double RemoveRule = true")
	}
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Commit()
	if fired.Load() != 0 {
		t.Fatal("removed rule fired")
	}
}

func TestDisabledRuleDoesNotFire(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var fired atomic.Int64
	e.AddRule(&Rule{
		Name: "r", EventKey: pingKey(), ActionMode: Immediate, Disabled: true,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Commit()
	if fired.Load() != 0 {
		t.Fatal("disabled rule fired")
	}
}

// --- transaction events ---

func TestTxnEventsBOTCommitAbort(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	var bot, commit, abort atomic.Int64
	e.AddRule(&Rule{
		Name: "onBOT", EventKey: event.TxnSpec{Phase: event.BOT}.Key(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { bot.Add(1); return nil },
	})
	e.AddRule(&Rule{
		Name: "onCommit", EventKey: event.TxnSpec{Phase: event.Commit}.Key(), ActionMode: Detached,
		Action: func(*RuleCtx) error { commit.Add(1); return nil },
	})
	e.AddRule(&Rule{
		Name: "onAbort", EventKey: event.TxnSpec{Phase: event.Abort}.Key(), ActionMode: Detached,
		Action: func(*RuleCtx) error { abort.Add(1); return nil },
	})
	tx := db.Begin()
	tx.Commit()
	tx2 := db.Begin()
	tx2.Abort()
	e.WaitDetached()
	// The BOT immediate rule itself runs in a subtransaction whose
	// begin does not re-fire (children are not top-level).
	if bot.Load() < 2 {
		t.Fatalf("BOT fired %d, want >= 2", bot.Load())
	}
	if commit.Load() == 0 || abort.Load() == 0 {
		t.Fatalf("commit/abort rules fired %d/%d, want > 0", commit.Load(), abort.Load())
	}
}

// --- histories ---

func TestDistributedHistoryConsolidatedAfterCommit(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{History: DistributedHistory})
	obj := newSensor(t, db)
	e.AddRule(&Rule{
		Name: "r", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	// Before commit: local history has it, global does not.
	m := e.planFor(pingKey()).m
	if len(m.LocalHistory()) != 1 {
		t.Fatalf("local history = %d entries, want 1", len(m.LocalHistory()))
	}
	if len(e.GlobalHistory()) != 0 {
		t.Fatalf("global history before commit = %d entries, want 0", len(e.GlobalHistory()))
	}
	tx.Commit()
	found := false
	for _, en := range e.GlobalHistory() {
		if en.Key == pingKey() && en.Txn == tx.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("global history missing consolidated entry after commit")
	}
}

func TestCentralHistoryImmediate(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{History: CentralHistory})
	obj := newSensor(t, db)
	e.AddRule(&Rule{
		Name: "r", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	if len(e.GlobalHistory()) != 1 {
		t.Fatalf("central history = %d entries before commit, want 1", len(e.GlobalHistory()))
	}
	tx.Commit()
}

// --- unsafe immediate composite (E5) ---

func TestUnsafeImmediateCompositeStalls(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{AllowUnsafeImmediateComposite: true})
	obj := newSensor(t, db)
	comp := seqComposite("unsafe", algebra.ScopeTransaction)
	e.DefineComposite(comp)
	var fired atomic.Int64
	if err := e.AddRule(&Rule{
		Name: "immComp", EventKey: comp.Key(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	}); err != nil {
		t.Fatalf("unsafe mode still rejected immediate composite: %v", err)
	}
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	db.Invoke(tx, obj, "reset")
	// Because delivery stalls for acknowledgement, the completion has
	// fired by the time Invoke returns.
	if fired.Load() != 1 {
		t.Fatalf("immediate composite rule fired %d, want 1 synchronously", fired.Load())
	}
	tx.Commit()
}

// --- sync vs async composition ---

func TestSyncCompositionMode(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{SyncComposition: true})
	obj := newSensor(t, db)
	comp := seqComposite("sync", algebra.ScopeTransaction)
	e.DefineComposite(comp)
	var fired atomic.Int64
	e.AddRule(&Rule{
		Name: "r", EventKey: comp.Key(), ActionMode: Deferred,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	db.Invoke(tx, obj, "reset")
	tx.Commit()
	if fired.Load() != 1 {
		t.Fatalf("sync composition fired %d, want 1", fired.Load())
	}
}

// --- parallel rule execution ---

func TestParallelExecRunsSiblings(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{Exec: ParallelExec})
	obj := newSensor(t, db)
	const n = 4
	gate := make(chan struct{})
	var concurrent atomic.Int64
	var peak atomic.Int64
	for i := 0; i < n; i++ {
		e.AddRule(&Rule{
			Name: fmt.Sprintf("p%d", i), EventKey: pingKey(), ActionMode: Immediate,
			Action: func(*RuleCtx) error {
				c := concurrent.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				<-gate
				concurrent.Add(-1)
				return nil
			},
		})
	}
	tx := db.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := db.Invoke(tx, obj, "ping", int64(1))
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for peak.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peak.Load() != n {
		t.Fatalf("peak concurrency = %d, want %d (sibling subtransactions)", peak.Load(), n)
	}
	tx.Commit()
}

func TestStatsCounters(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	e.AddRule(&Rule{
		Name: "i", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil },
	})
	e.AddRule(&Rule{
		Name: "d", EventKey: pingKey(), ActionMode: Deferred,
		Action: func(*RuleCtx) error { return nil },
	})
	e.AddRule(&Rule{
		Name: "x", EventKey: pingKey(), ActionMode: Detached,
		Action: func(*RuleCtx) error { return nil },
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	tx.Commit()
	e.WaitDetached()
	st := e.Stats()
	if st.ImmediateFired != 1 || st.DeferredFired != 1 || st.DetachedFired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Events == 0 {
		t.Fatal("no events counted")
	}
}
