package eca

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// A finished firing set goes back to its free list only when nothing
// can reach its subtransactions (firingSets.release). Each test below races one
// of the three ways something still can against the sets being reused,
// and fails with every goroutine's stack rather than hanging: a
// subtransaction zeroed under a reader wedges it on a zeroed mutex.

// within runs fn on a goroutine of its own and fails the test when fn
// returns an error or has not returned after 5 s.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s did not finish within 5 s (recycled memory reused while still reachable?):\n%s",
			what, buf[:runtime.Stack(buf, true)])
	}
}

// The plant-contended shape, with the upgrades in the rule bodies: two
// goroutines ping sensors of their own, and each of four immediate
// rules reads one of four shared sensors and then writes it, S then X.
// The two trees' subtransactions deadlock on the upgrades, so deadlock
// searches walk one tree's active children while the other's sets
// finish and go back to the free list. A victim's transaction is
// retried after a backoff; every committed transaction adds one to
// four shared sensors.
func TestSetRecyclingRacesDeadlockSearch(t *testing.T) {
	for _, x := range execModes {
		t.Run(x.name, func(t *testing.T) {
			e, db, _ := newTestEngine(t, Options{Exec: x.exec})
			const rules, clients = 4, 2
			shared := make([]*oodb.Object, rules)
			for i := range shared {
				shared[i] = newSensor(t, db)
			}
			for i := 0; i < rules; i++ {
				i := i
				if err := e.AddRule(&Rule{Name: fmt.Sprintf("upgrade%d", i), EventKey: pingKey(), ActionMode: Immediate,
					Action: func(rc *RuleCtx) error {
						obj := shared[(int(rc.Trigger.Args[0].(int64))+i)%rules]
						v, err := rc.Ctx().GetInt(obj, "val")
						if err != nil {
							return err
						}
						return rc.Ctx().Set(obj, "val", v+1)
					}}); err != nil {
					t.Fatal(err)
				}
			}
			// Without the race detector's slowdown the interleavings that
			// reach a reused child are rarer: more transactions.
			txns := 4000
			if raceEnabled {
				txns = 1500
			}
			if testing.Short() {
				txns = 300
			}
			var victims [clients]int
			own := [clients]*oodb.Object{newSensor(t, db), newSensor(t, db)}
			within(t, "two clients upgrading shared sensors in their rules", func() error {
				errs := make(chan error, clients)
				for c := 0; c < clients; c++ {
					go func(c int) {
						for i := 0; i < txns; i++ {
							for try := 0; ; try++ {
								tx := db.Begin()
								_, err := db.Invoke(tx, own[c], "ping", int64(i+c))
								if err == nil {
									err = tx.Commit()
								} else {
									_ = tx.Abort()
								}
								if err == nil {
									break
								}
								if !errors.Is(err, txn.ErrDeadlock) || try == 1000 {
									errs <- fmt.Errorf("client %d, transaction %d, try %d: %w", c, i, try, err)
									return
								}
								victims[c]++
								// Back off, or the other client's next transaction
								// makes this one its victim again.
								time.Sleep(time.Duration(1+(try+c)%8) * 10 * time.Microsecond)
							}
						}
						errs <- nil
					}(c)
				}
				return errors.Join(<-errs, <-errs)
			})
			var sum int64
			tx := db.Begin()
			ctx := &oodb.Ctx{DB: db, Txn: tx}
			for _, obj := range shared {
				v, err := ctx.GetInt(obj, "val")
				if err != nil {
					t.Fatal(err)
				}
				sum += v
			}
			_ = tx.Commit()
			if want := int64(clients * txns * rules); sum != want {
				t.Fatalf("shared sensors sum to %d after %d committed transactions, want %d", sum, clients*txns, want)
			}
			t.Logf("deadlock victims retried: %v", victims)
		})
	}
}

// A trigger aborted from another goroutine while its immediate rules
// fire: the abort cascades to the children it listed when it began,
// which may have resolved and whose set may be back on the free list by
// the time the cascade reaches them. A bystander fires the same rules
// on a sensor of its own meanwhile, taking sets from the same free
// lists: none of its firings may be aborted by the other trigger's
// cascade, and each of its committed writes stays. Rule i writes the
// trigger's argument to counter i of the sensor's owner. Every aborted
// trigger's counters keep their initial value: a rule write racing the
// cascade is either undone by it or refused.
func TestSetRecyclingRacesParentAbort(t *testing.T) {
	for _, x := range execModes {
		t.Run(x.name, func(t *testing.T) {
			e, db, _ := newTestEngine(t, Options{Exec: x.exec})
			aborted, bystander := newSensor(t, db), newSensor(t, db)
			const rules = 4
			counters := map[*oodb.Object][]*oodb.Object{}
			for _, owner := range []*oodb.Object{aborted, bystander} {
				for i := 0; i < rules; i++ {
					counters[owner] = append(counters[owner], newSensor(t, db))
				}
			}
			started := make(chan struct{}, 1)
			for i := 0; i < rules; i++ {
				i := i
				if err := e.AddRule(&Rule{Name: fmt.Sprintf("count%d", i), EventKey: pingKey(), ActionMode: Immediate,
					Action: func(rc *RuleCtx) error {
						owner := aborted
						if oodb.OID(rc.Trigger.OID) == bystander.OID() {
							owner = bystander
						} else if i == 0 {
							select {
							case started <- struct{}{}:
							default:
							}
						}
						return rc.Ctx().Set(counters[owner][i], "val", rc.Trigger.Args[0])
					}}); err != nil {
					t.Fatal(err)
				}
			}
			txns := 1500
			if testing.Short() {
				txns = 300
			}
			var lastCommitted int64
			within(t, "triggers aborted while their rules fire, beside a bystander", func() error {
				stop := make(chan struct{})
				bystanderErr := make(chan error, 1)
				go func() {
					for i := int64(1); ; i++ {
						select {
						case <-stop:
							bystanderErr <- nil
							return
						default:
						}
						tx := db.Begin()
						if _, err := db.Invoke(tx, bystander, "ping", i); err != nil {
							_ = tx.Abort()
							bystanderErr <- fmt.Errorf("bystander transaction %d: %w", i, err)
							return
						}
						if err := tx.Commit(); err != nil {
							bystanderErr <- fmt.Errorf("bystander transaction %d: %w", i, err)
							return
						}
						lastCommitted = i
					}
				}()
				for i := 1; i <= txns; i++ {
					tx := db.Begin()
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-started
						_ = tx.Abort()
					}()
					_, _ = db.Invoke(tx, aborted, "ping", int64(i)) // fails once the abort lands
					wg.Wait()
					if st := tx.Status(); st != txn.Aborted {
						close(stop)
						return fmt.Errorf("transaction %d is %v after its abort", i, st)
					}
				}
				close(stop)
				return <-bystanderErr
			})
			tx := db.Begin()
			defer tx.Abort()
			ctx := &oodb.Ctx{DB: db, Txn: tx}
			for i := 0; i < rules; i++ {
				if v, err := ctx.GetInt(counters[bystander][i], "val"); err != nil || v != lastCommitted {
					t.Fatalf("bystander's counter %d = %d (%v), want its last committed argument %d", i, v, err, lastCommitted)
				}
				if v, err := ctx.GetInt(counters[aborted][i], "val"); err != nil || v != 0 {
					t.Fatalf("aborted triggers' counter %d = %d (%v), want its initial 0: an aborted rule's write was kept", i, v, err)
				}
			}
		})
	}
}

// An occurrence raised inside a rule body and retained by a deferred, a
// detached and a composite rule pins the rule's subtransaction: after
// 1 000 further transactions whose immediate rules reuse the free
// lists, its Origin still reports the subtransaction's own ID, its
// committed outcome and its top-level transaction.
func TestRetainedOriginOutlivesRecycling(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)
	var sub *txn.Txn
	var subID uint64
	if err := e.AddRule(&Rule{Name: "raiser", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(rc *RuleCtx) error {
			if rc.Trigger.Args[0].(int64) != 0 {
				return nil
			}
			sub, subID = rc.Txn, rc.Txn.ID()
			_, err := rc.Ctx().Invoke(obj, "reset")
			return err
		}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(&Rule{Name: "bystander", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var kept []*event.Instance
	keep := func(rc *RuleCtx) error {
		mu.Lock()
		kept = append(kept, rc.Trigger)
		mu.Unlock()
		return nil
	}
	for _, r := range []*Rule{
		{Name: "deferred", EventKey: resetKey(), ActionMode: Deferred, Action: keep},
		{Name: "detached", EventKey: resetKey(), ActionMode: Detached, Action: keep},
	} {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	// Two resets in sequence: the one raised stays semi-composed.
	held := &algebra.Composite{Name: "reset-twice", Policy: algebra.Chronicle, Scope: algebra.ScopeGlobal,
		Validity: time.Hour, Expr: algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: resetKey()}, algebra.Prim{Key: resetKey()}}}}
	if err := e.DefineComposite(held); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(&Rule{Name: "composite", EventKey: held.Key(), ActionMode: Detached, Action: keep}); err != nil {
		t.Fatal(err)
	}

	ping := func(i int) *txn.Txn {
		tx := db.Begin()
		if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	top := ping(0)
	within(t, "the detached rule", func() error { e.WaitDetached(); return nil })
	if len(kept) != 2 || kept[0] != kept[1] {
		t.Fatalf("deferred and detached rules kept %v, want the one reset occurrence twice", kept)
	}
	in := kept[0]
	for i := 1; i <= 1000; i++ {
		ping(i)
	}
	e.DrainComposers()
	origin, _ := in.Origin.(*txn.Txn)
	if origin != sub || origin.ID() != subID || origin.Status() != txn.Committed || origin.Top() != top {
		t.Fatalf("retained reset's Origin after 1000 firings: id %d, %v, top %p; want id %d, committed, top %p",
			origin.ID(), origin.Status(), origin.Top(), subID, top)
	}
	if n := e.Stats().CompositesDetected; n != 0 {
		t.Fatalf("%d composites detected, want the reset held semi-composed", n)
	}
}
