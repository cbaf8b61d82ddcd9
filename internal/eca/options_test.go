package eca

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/event"
)

// TestSimpleBeforeComplexOrdering checks the third deferred-queue
// ordering policy of §6.4: rules triggered by simple events fire ahead
// of rules triggered by composite events, priorities notwithstanding.
func TestSimpleBeforeComplexOrdering(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{SimpleBeforeComplex: true})
	obj := newSensor(t, db)
	comp := seqComposite("sbc", algebra.ScopeTransaction)
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	e.AddRule(&Rule{
		Name: "complex", EventKey: comp.Key(), Priority: 100, ActionMode: Deferred,
		Action: func(*RuleCtx) error {
			mu.Lock()
			order = append(order, "complex")
			mu.Unlock()
			return nil
		},
	})
	e.AddRule(&Rule{
		Name: "simple", EventKey: resetKey(), Priority: 1, ActionMode: Deferred,
		Action: func(*RuleCtx) error {
			mu.Lock()
			order = append(order, "simple")
			mu.Unlock()
			return nil
		},
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	db.Invoke(tx, obj, "reset")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "simple" || order[1] != "complex" {
		t.Fatalf("deferred order = %v, want [simple complex] despite priorities", order)
	}
}

// TestWithoutSimpleBeforeComplexPriorityWins is the control: with the
// policy off, the higher-priority composite rule fires first.
func TestWithoutSimpleBeforeComplexPriorityWins(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	comp := seqComposite("nsbc", algebra.ScopeTransaction)
	e.DefineComposite(comp)
	var mu sync.Mutex
	var order []string
	e.AddRule(&Rule{
		Name: "complex", EventKey: comp.Key(), Priority: 100, ActionMode: Deferred,
		Action: func(*RuleCtx) error {
			mu.Lock()
			order = append(order, "complex")
			mu.Unlock()
			return nil
		},
	})
	e.AddRule(&Rule{
		Name: "simple", EventKey: resetKey(), Priority: 1, ActionMode: Deferred,
		Action: func(*RuleCtx) error {
			mu.Lock()
			order = append(order, "simple")
			mu.Unlock()
			return nil
		},
	})
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	db.Invoke(tx, obj, "reset")
	tx.Commit()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "complex" {
		t.Fatalf("deferred order = %v, want complex first by priority", order)
	}
}

// TestParallelDeferredExecution runs the deferred batch as parallel
// sibling subtransactions.
func TestParallelDeferredExecution(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{Exec: ParallelExec})
	obj := newSensor(t, db)
	const n = 4
	gate := make(chan struct{})
	var peak, cur atomic.Int64
	for i := 0; i < n; i++ {
		e.AddRule(&Rule{
			Name: string(rune('a' + i)), EventKey: pingKey(), ActionMode: Deferred,
			Action: func(*RuleCtx) error {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				<-gate
				cur.Add(-1)
				return nil
			},
		})
	}
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	deadline := time.Now().Add(2 * time.Second)
	for peak.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peak.Load() != n {
		t.Fatalf("deferred peak concurrency = %d, want %d", peak.Load(), n)
	}
}

// TestUnsafeImmediateCompositeSync covers the unsafe combination in
// synchronous composition mode.
func TestUnsafeImmediateCompositeSync(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{
		AllowUnsafeImmediateComposite: true,
		SyncComposition:               true,
	})
	obj := newSensor(t, db)
	comp := seqComposite("usync", algebra.ScopeTransaction)
	e.DefineComposite(comp)
	var fired atomic.Int64
	if err := e.AddRule(&Rule{
		Name: "imm", EventKey: comp.Key(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { fired.Add(1); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	db.Invoke(tx, obj, "ping", int64(1))
	db.Invoke(tx, obj, "reset")
	if fired.Load() != 1 {
		t.Fatalf("sync unsafe immediate fired %d, want 1", fired.Load())
	}
	tx.Commit()
}

// TestHistoryRingBounded verifies local history rings respect their
// capacity.
func TestHistoryRingBounded(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	e.AddRule(&Rule{
		Name: "r", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil },
	})
	tx := db.Begin()
	for i := 0; i < localHistorySize+22; i++ {
		db.Invoke(tx, obj, "ping", int64(i))
	}
	m := e.planFor(pingKey()).m
	hist := m.LocalHistory()
	if len(hist) != localHistorySize {
		t.Fatalf("local history = %d entries, want %d (ring capacity)", len(hist), localHistorySize)
	}
	// Oldest retained entries are the most recent occurrences.
	for i := 1; i < len(hist); i++ {
		if hist[i].Seq <= hist[i-1].Seq {
			t.Fatal("history not in occurrence order")
		}
	}
	tx.Commit()
}

// TestCompositeOfComposite nests a named composite inside another via
// propagation of completions.
func TestCompositeOfComposite(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	inner := seqComposite("inner2", algebra.ScopeTransaction)
	if err := e.DefineComposite(inner); err != nil {
		t.Fatal(err)
	}
	outer := &algebra.Composite{
		Name:   "outer2",
		Expr:   algebra.History{Of: algebra.Prim{Key: inner.Key()}, Count: 2},
		Policy: algebra.Chronicle,
		Scope:  algebra.ScopeTransaction,
	}
	if err := e.DefineComposite(outer); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	e.AddRule(&Rule{
		Name: "onOuter", EventKey: outer.Key(), ActionMode: Deferred,
		Action: func(rc *RuleCtx) error {
			fired.Add(1)
			if got := len(rc.Trigger.Flatten()); got != 4 {
				t.Errorf("outer composite flattened to %d primitives, want 4", got)
			}
			return nil
		},
	})
	tx := db.Begin()
	for i := 0; i < 2; i++ { // two inner pairs
		db.Invoke(tx, obj, "ping", int64(i))
		db.Invoke(tx, obj, "reset")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("composite-of-composite fired %d, want 1", fired.Load())
	}
}

// TestEOTEventVisibleToRules ensures rules can trigger on the EOT
// flow-control event and still couple deferred.
func TestEOTEventVisibleToRules(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	var fired atomic.Int64
	e.AddRule(&Rule{
		Name: "onEOT", EventKey: event.TxnSpec{Phase: event.EOT}.Key(), ActionMode: Immediate,
		Action: func(rc *RuleCtx) error { fired.Add(1); return nil },
	})
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("EOT rule fired %d, want 1", fired.Load())
	}
	// Aborting transactions never reach EOT.
	tx2 := db.Begin()
	tx2.Abort()
	if fired.Load() != 1 {
		t.Fatal("EOT rule fired for aborted transaction")
	}
}
