package eca

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/oodb"
)

// TestPlanConsistencyHammer churns the registration surface — AddRule,
// RemoveRule, SetRuleEnabled, DefineComposite — while raisers hammer the
// key the rules trigger on. Every churned rule is retired (removed or
// disabled) in turn; once the retiring call has returned, no raise that
// starts afterwards may fire the rule, whatever its coupling mode.
func TestPlanConsistencyHammer(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			hammerPlans(t, procs+1, 24)
		})
	}
}

func hammerPlans(t *testing.T, raisers, rounds int) {
	e, db, _ := newTestEngine(t, Options{})
	objs := make([]*oodb.Object, raisers)
	for i := range objs {
		objs[i] = newSensor(t, db)
	}

	// started maps a raise's token (its ping argument) to the number of
	// rules already retired when the raise began.
	var started sync.Map
	var retired atomic.Int64
	var fired, late atomic.Int64
	victim := func(k int) *Rule {
		mode := []Coupling{Immediate, Deferred, Detached}[k%3]
		return &Rule{Name: fmt.Sprintf("victim%d", k), EventKey: pingKey(), ActionMode: mode,
			Action: func(rc *RuleCtx) error {
				fired.Add(1)
				if gone, _ := started.Load(rc.Trigger.Args[0]); int64(k) < gone.(int64) {
					late.Add(1)
					t.Errorf("%s (%v) fired for a raise that began after it was retired", rc.Trigger, mode)
				}
				return nil
			}}
	}

	var token atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, obj := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tok := token.Add(1)
				started.Store(tok, retired.Load())
				tx := db.Begin()
				if _, err := db.Invoke(tx, obj, "ping", tok); err != nil {
					t.Error(err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for k := 0; k < rounds; k++ {
		if err := e.AddRule(victim(k)); err != nil {
			t.Fatal(err)
		}
		comp := seqComposite(fmt.Sprintf("churn%d", k), algebra.ScopeTransaction)
		if err := e.DefineComposite(comp); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRule(&Rule{Name: comp.Name, EventKey: comp.Key(), ActionMode: Deferred,
			Action: func(*RuleCtx) error { return nil }}); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
		name := fmt.Sprintf("victim%d", k)
		if k%2 == 0 {
			if !e.RemoveRule(pingKey(), name) {
				t.Fatalf("RemoveRule(%s) found nothing", name)
			}
		} else if !e.SetRuleEnabled(pingKey(), name, false) {
			t.Fatalf("SetRuleEnabled(%s) found nothing", name)
		}
		retired.Store(int64(k + 1))
		// Let raises that began after the retirement run.
		for want := token.Load() + int64(raisers); token.Load() < want; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	e.WaitDetached()
	if fired.Load() == 0 {
		t.Fatal("no churned rule ever fired: the hammer raised nothing")
	}
	if late.Load() > 0 {
		t.Fatalf("%d firings of already-retired rules", late.Load())
	}
}
