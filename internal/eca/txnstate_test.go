package eca

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// A top-level transaction's engine state goes back to its pool when
// the transaction ends, while the transaction still points at it. The
// tests below reach a state that serves another transaction through
// the ended one, the way a late occurrence or a parking firing does,
// and check that nothing lands in the other transaction's state.

// recycledState commits transactions that each ping obj until the
// next one, b, raising on other, is handed the state of the one
// before, a. b is left open.
func recycledState(t *testing.T, db *oodb.DB, obj, other *oodb.Object) (a, b *txn.Txn) {
	t.Helper()
	for range 1000 {
		a = db.Begin()
		ping(t, db, a, obj, 1)
		st := txnStateOf(a)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		b = db.Begin()
		ping(t, db, b, other, 1)
		if txnStateOf(b) == st {
			return a, b
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no transaction was handed its predecessor's state in 1000 tries")
	return nil, nil
}

// Occurrences recorded for a transaction that ended, while its state
// serves another one, stay out of the other's hand-off to the global
// history: they are recorded on a goroutine of their own while the
// other raises and commits.
func TestLateRecordAfterStateRecycled(t *testing.T) {
	e, db, obj := historyEngine(t, Options{})
	other := newSensor(t, db)
	a, b := recycledState(t, db, obj, other)
	m := e.planFor(pingKey()).m
	const late, raised = 200, 20
	within(t, "late records beside the state's new owner", func() error {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range late {
				in := &event.Instance{SpecKey: pingKey(), Kind: event.KindMethod, Txn: a.ID()}
				e.stamp(in)
				e.record(m, in, a)
			}
		}()
		for i := range raised {
			if _, err := db.Invoke(b, other, "ping", int64(i)); err != nil {
				return err
			}
		}
		wg.Wait()
		return b.Commit()
	})
	if got := len(globalOf(t, e, a.ID())); got != 1 {
		t.Fatalf("global history holds %d occurrences of the ended transaction, want its 1", got)
	}
	if got := len(globalOf(t, e, b.ID())); got != 1+raised {
		t.Fatalf("global history holds %d occurrences of the state's new owner, want %d", got, 1+raised)
	}
}

// A sequential-causal firing whose trigger ends while the firing
// parks on it never parks in the state the trigger handed on.
//
// First, the interleaving itself: park has read its trigger a active
// and waits for a's state, which a's end hands to b meanwhile; park
// must then leave it alone. Then the engine's own paths, 200 rounds: a
// transaction completes a global composite, whose firing the composer
// routes while the transaction commits, and the next transaction,
// likely handed the committed one's state at its BOT, stays open until
// the firing has run: a firing parked in the open transaction's state
// would wait for its end and never run.
func TestParkedFiringAfterStateRecycled(t *testing.T) {
	const rounds = 200
	e, db, _ := newTestEngine(t, Options{Workers: 2, Queue: 4})
	comp := seqComposite("ping-reset", algebra.ScopeGlobal)
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	ran := make(chan map[uint64]bool, rounds)
	for _, r := range []*Rule{
		{Name: "sc", EventKey: comp.Key(), ActionMode: DetachedSequentialCausal, Action: func(rc *RuleCtx) error {
			ran <- rc.Trigger.Transactions()
			return nil
		}},
		// Every transaction takes a state at its BOT.
		{Name: "inert", EventKey: event.TxnSpec{Phase: event.BOT}.Key(), ActionMode: Immediate,
			Action: func(*RuleCtx) error { return nil }},
	} {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}

	a, b := db.Begin(), db.Begin()
	st := txnStateOf(a)
	st.mu.Lock()
	parked := make(chan bool, 1)
	go func() { parked <- park(a, ruleJob{}) }()
	within(t, "park reading its trigger active", func() error {
		for !blockedIn("eca.park(") {
			runtime.Gosched()
		}
		return nil
	})
	st.owner = b // a ended, and b was handed its state
	st.mu.Unlock()
	within(t, "park after its trigger's state was handed on", func() error {
		if <-parked {
			return fmt.Errorf("the firing parked in the state that serves transaction %d", b.ID())
		}
		return nil
	})
	st.mu.Lock()
	st.owner, st.parked = a, nil
	st.mu.Unlock()
	for _, tx := range []*txn.Txn{a, b} {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	obj := newSensor(t, db)
	for round := range rounds {
		a := db.Begin()
		if _, err := db.Invoke(a, obj, "ping", int64(round)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Invoke(a, obj, "reset"); err != nil {
			t.Fatal(err)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		b := db.Begin()
		within(t, fmt.Sprintf("round %d: the firing of a committed trigger beside an open transaction", round), func() error {
			if trig := <-ran; !trig[a.ID()] || len(trig) != 1 {
				return fmt.Errorf("firing's triggers %v, want only %d", trig, a.ID())
			}
			return nil
		})
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitDetached()
}

// blockedIn reports whether some goroutine waits for a mutex inside
// the function fn names.
func blockedIn(fn string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, fn) && strings.Contains(g, "Mutex).Lock") {
			return true
		}
	}
	return false
}

// An ended transaction's state is handed back with releasedOwner as
// its owner, and its deferred queue is closed to the ended transaction
// in every build. In the poison build that owner is a poisoned
// transaction, whose Status panics.
func TestReleasedStateTraps(t *testing.T) {
	_, db, obj := historyEngine(t, Options{})
	a := db.Begin()
	ping(t, db, a, obj, 1)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	st := txnStateOf(a)
	st.mu.Lock()
	owner := st.owner
	st.mu.Unlock()
	if owner != releasedOwner {
		t.Fatalf("ended transaction's state owned by %p, want releasedOwner %p", owner, releasedOwner)
	}
	if st.lockLive(a) {
		st.mu.Unlock()
		t.Fatal("the ended transaction's deferred queue is still open to it")
	}
	if !poisonBuild {
		return
	}
	defer func() {
		if recover() == nil {
			t.Error("the released owner's status: no panic in the poison build")
		}
	}()
	_ = owner.Status()
}

// A rule on the commit event runs in a rule transaction of its own.
// When it couples its condition immediately and its action deferred,
// the action runs at that transaction's EOT, inside it, even though
// its condition raised an occurrence, so the rule transaction's end
// hands a state on: never later, in the state's next owner, and never
// not at all. Another transaction stays open beside it, pinging, so
// it is likely handed the rule transaction's state.
func TestSplitRuleOnCommitRunsInItsOwnTransaction(t *testing.T) {
	const rounds = 200
	e, db, obj := historyEngine(t, Options{})
	other := newSensor(t, db)
	type run struct{ cond, action uint64 }
	var (
		mu   sync.Mutex
		runs []run
		cond uint64
	)
	if err := e.AddRule(&Rule{
		Name: "split-on-commit", EventKey: event.TxnSpec{Phase: event.Commit}.Key(),
		CondMode: Immediate, ActionMode: Deferred,
		Cond: func(rc *RuleCtx) (bool, error) {
			cond = rc.Txn.ID()
			_, err := db.Invoke(rc.Txn, obj, "ping", int64(1))
			return true, err
		},
		Action: func(rc *RuleCtx) error {
			mu.Lock()
			runs = append(runs, run{cond, rc.Txn.Top().ID()})
			mu.Unlock()
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	// commit commits tx, whose commit event fires the rule once.
	commit := func(tx *txn.Txn) error {
		mu.Lock()
		before := len(runs)
		mu.Unlock()
		if err := tx.Commit(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if n := len(runs) - before; n != 1 {
			return fmt.Errorf("transaction %d's commit ran %d actions, want 1", tx.ID(), n)
		}
		if last := runs[len(runs)-1]; last.action != last.cond {
			return fmt.Errorf("the action ran in transaction %d, want its rule transaction %d", last.action, last.cond)
		}
		return nil
	}
	within(t, "split rules on commit beside an open transaction", func() error {
		for round := range rounds {
			b := db.Begin()
			if _, err := db.Invoke(b, other, "ping", int64(round)); err != nil {
				return err
			}
			if err := commit(db.Begin()); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if _, err := db.Invoke(b, other, "ping", int64(round)); err != nil {
				return err
			}
			if err := commit(b); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		return nil
	})
}
