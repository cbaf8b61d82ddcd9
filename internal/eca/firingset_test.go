package eca

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/oodb"
)

var execModes = []struct {
	name string
	exec ExecStrategy
}{{"sequential", SequentialExec}, {"parallel", ParallelExec}}

// The fired counters count the firings whose transaction began: under
// SequentialExec the first error ends the set and the rules after it
// never run; under ParallelExec every sibling runs.
func TestFiredCountsOnlyRulesThatRan(t *testing.T) {
	for _, mode := range []Coupling{Immediate, Deferred} {
		for _, x := range execModes {
			t.Run(fmt.Sprintf("%v/%s", mode, x.name), func(t *testing.T) {
				e, db, _ := newTestEngine(t, Options{Exec: x.exec})
				obj := newSensor(t, db)
				boom := errors.New("boom")
				for i := 0; i < 3; i++ {
					action := func(*RuleCtx) error { return nil }
					if i == 0 {
						action = func(*RuleCtx) error { return boom }
					}
					if err := e.AddRule(&Rule{Name: fmt.Sprintf("r%d", i), EventKey: pingKey(),
						Priority: 3 - i, ActionMode: mode, Action: action}); err != nil {
						t.Fatal(err)
					}
				}
				tx := db.Begin()
				_, err := db.Invoke(tx, obj, "ping", int64(1))
				if mode == Deferred {
					if err != nil {
						t.Fatal(err)
					}
					err = tx.Commit()
				} else {
					_ = tx.Abort()
				}
				if !errors.Is(err, boom) {
					t.Fatalf("error = %v, want the first rule's", err)
				}
				want := uint64(1)
				if x.exec == ParallelExec {
					want = 3
				}
				st := e.Stats()
				got := st.ImmediateFired
				if mode == Deferred {
					got = st.DeferredFired
				}
				if got != want {
					t.Fatalf("%v rules fired = %d, want %d", mode, got, want)
				}
			})
		}
	}
}

// A rule set's firings, their rule contexts and their subtransactions
// share one array, which goes back to a free list when the set is done,
// and deferred firings queue on the transaction's inline room: a
// transaction whose one call fires eight immediate and eight deferred
// rules costs what one that fires one of each does, and neither
// allocates a set.
func TestRuleSetAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		e, db, _ := newTestEngine(t, Options{})
		obj := newSensor(t, db)
		for i := 0; i < n; i++ {
			for _, mode := range []Coupling{Immediate, Deferred} {
				if err := e.AddRule(&Rule{Name: fmt.Sprintf("%v%d", mode, i), EventKey: pingKey(),
					ActionMode: mode, Action: func(*RuleCtx) error { return nil }}); err != nil {
					t.Fatal(err)
				}
			}
		}
		txn := func() {
			tx := db.Begin()
			if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2*traceCapacity; i++ {
			txn() // every slot of the trace ring has its span array
		}
		if st := e.Stats(); st.ImmediateFired != uint64(2*traceCapacity*n) || st.DeferredFired != st.ImmediateFired {
			t.Fatalf("warm-up fired %+v, want %d of each", st, 2*traceCapacity*n)
		}
		return testing.AllocsPerRun(100, txn)
	}
	one, eight := allocs(1), allocs(8)
	if one != eight {
		t.Fatalf("transaction firing 1+1 rules: %.0f allocations; 8+8 rules: %.0f; want the same", one, eight)
	}
	if one > 7 {
		t.Fatalf("transaction firing 1+1 rules: %.0f allocations, ceiling 7", one)
	}
}

// Deferred rules that queue deferred work while their EOT round runs:
// the round's set is built before the queue gets its inline room back,
// so round 1 runs each of its firings once and round 2 exactly the
// newly queued ones, in priority order. A transaction that records more
// occurrences than its history room hands them all over in Seq order.
func TestDeferredRoomAcrossRounds(t *testing.T) {
	for _, x := range execModes {
		t.Run(x.name, func(t *testing.T) {
			e, db, _ := newTestEngine(t, Options{Exec: x.exec})
			objs := make([]*oodb.Object, 3)
			for i := range objs {
				objs[i] = newSensor(t, db)
			}
			var mu sync.Mutex
			var log []string
			logged := func(name string, then func(rc *RuleCtx) error) ActionFunc {
				return func(rc *RuleCtx) error {
					mu.Lock()
					log = append(log, name)
					mu.Unlock()
					return then(rc)
				}
			}
			nothing := func(*RuleCtx) error { return nil }
			// Round 1: A, B and C on ping, each resetting its own sensor.
			for i, name := range []string{"A", "B", "C"} {
				obj := objs[i]
				if err := e.AddRule(&Rule{Name: name, EventKey: pingKey(), Priority: 10 - i,
					ActionMode: Deferred, Action: logged(name, func(rc *RuleCtx) error {
						_, err := rc.Ctx().Invoke(obj, "reset")
						return err
					})}); err != nil {
					t.Fatal(err)
				}
			}
			// Round 2: each reset queues Y, then X, which Y outranks.
			for _, r := range []*Rule{
				{Name: "X", EventKey: resetKey(), Priority: 1, ActionMode: Deferred, Action: logged("X", nothing)},
				{Name: "Y", EventKey: resetKey(), Priority: 2, ActionMode: Deferred, Action: logged("Y", nothing)},
			} {
				if err := e.AddRule(r); err != nil {
					t.Fatal(err)
				}
			}
			tx := db.Begin()
			if _, err := db.Invoke(tx, objs[0], "ping", int64(1)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if len(log) != 9 {
				t.Fatalf("firings = %v, want A, B, C, then Y and X three times each", log)
			}
			round1, round2 := log[:3], log[3:]
			if x.exec == ParallelExec {
				// Siblings run concurrently: only each round's firings are fixed.
				slices.Sort(round1)
				slices.Sort(round2)
				slices.Reverse(round2)
			}
			if !slices.Equal(round1, []string{"A", "B", "C"}) || !slices.Equal(round2, []string{"Y", "Y", "Y", "X", "X", "X"}) {
				t.Fatalf("firings = %v, want A, B, C, then Y, Y, Y, X, X, X", log)
			}
			if st := e.Stats(); st.DeferredRounds != 2 || st.DeferredFired != 9 {
				t.Fatalf("stats = %+v, want 2 rounds and 9 deferred firings", st)
			}

			// More occurrences than the history room, some raised by
			// siblings at EOT.
			tx = db.Begin()
			const pings = histRoom + 3
			for i := 0; i < pings; i++ {
				if _, err := db.Invoke(tx, objs[0], "ping", int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			var seqs []uint64
			for _, h := range e.GlobalHistory() {
				if h.Txn == tx.ID() {
					seqs = append(seqs, h.Seq)
				}
			}
			if want := pings + 3*pings; len(seqs) != want || !slices.IsSorted(seqs) {
				t.Fatalf("handed over %d occurrences %v, want %d in Seq order", len(seqs), seqs, want)
			}
		})
	}
}
