// Workflow management: the paper's intro names workflow as a domain
// that "combines event-driven activities with temporal constraints".
// Orders flow through steps (received → packed → shipped) recorded in
// the chronicle consumption context so completions consume step events
// in arrival order. A milestone tracks each order transaction against
// its deadline and invokes a contingency (detached, as Table 1
// requires for temporal events); an exclusive-causal compensation
// commits only when an order transaction aborts.
//
//	go run ./examples/workflow
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic" //lint:allow rawatomics demo-local outcome counters, not engine metrics
	"time"

	reach "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run takes three orders through the workflow on a fresh database
// under a virtual clock, writing what happens to w.
func run(w io.Writer) error {
	vc := reach.NewVirtualClock(time.Date(1995, 3, 6, 8, 0, 0, 0, time.UTC))
	sys, err := reach.Open(reach.Options{Clock: vc})
	if err != nil {
		return err
	}
	defer sys.Close()

	order := reach.NewClass("Order",
		reach.Attr{Name: "id", Type: reach.TString},
		reach.Attr{Name: "state", Type: reach.TString},
	)
	order.Monitored = true
	for _, step := range []string{"receive", "pack", "ship"} {
		step := step
		order.Method(step, func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
			return nil, ctx.Set(self, "state", step)
		})
	}
	if err := sys.RegisterClass(order); err != nil {
		return err
	}

	// Composite: the full receive;pack;ship chain within one order
	// transaction, chronicle context (workflow steps are consumed in
	// chronological order, §3.4). The deferred rule stamps completion
	// before the order transaction commits.
	key := func(m string) string {
		return reach.MethodSpec{Class: "Order", Method: m, When: reach.After}.Key()
	}
	chain := &reach.Composite{
		Name: "fulfilled",
		Expr: reach.Seq{Exprs: []reach.Expr{
			reach.Prim{Key: key("receive")},
			reach.Prim{Key: key("pack")},
			reach.Prim{Key: key("ship")},
		}},
		Policy: reach.Chronicle,
		Scope:  reach.ScopeTransaction,
	}
	if err := sys.Engine.DefineComposite(chain); err != nil {
		return err
	}
	var fulfilled atomic.Int64
	sys.Engine.AddRule(&reach.Rule{
		Name: "Fulfilled", EventKey: chain.Key(), ActionMode: reach.Deferred,
		Action: func(rc *reach.RuleCtx) error {
			fulfilled.Add(1)
			fmt.Fprintln(w, "  [deferred] order fulfilled inside its transaction")
			return nil
		},
	})

	// Compensation: commits only if the order transaction aborts
	// (exclusive detached causally dependent, §3.2).
	var compensations atomic.Int64
	compDone := make(chan reach.TxnStatus, 8)
	sys.Engine.AddRule(&reach.Rule{
		Name:       "Compensate",
		EventKey:   key("receive"),
		ActionMode: reach.DetachedExclusiveCausal,
		Action: func(rc *reach.RuleCtx) error {
			t := rc.Txn
			go func() {
				st := t.Wait()
				if st == reach.TxnCommitted {
					compensations.Add(1)
					fmt.Fprintln(w, "  [exclusive-causal] compensation COMMITTED (trigger aborted)")
				}
				compDone <- st
			}()
			return nil
		},
	})

	// Milestone contingency: if the order transaction has not finished
	// 30 simulated minutes after its receive step, escalate.
	milestone := reach.TemporalSpec{Name: "order-deadline", Temporal: reach.MilestoneKind, Delay: 30 * time.Minute}
	var escalations atomic.Int64
	escalated := make(chan struct{}, 1)
	sys.Engine.AddRule(&reach.Rule{
		Name: "Escalate", EventKey: milestone.Key(), ActionMode: reach.Detached,
		Action: func(rc *reach.RuleCtx) error {
			escalations.Add(1)
			fmt.Fprintf(w, "  [contingency] txn %v missed its milestone — escalating\n", rc.Trigger.Args[0])
			select {
			case escalated <- struct{}{}:
			default:
			}
			return nil
		},
	})

	// --- Order 1: completes in time. -------------------------------
	fmt.Fprintln(w, "-- order A: received, packed, shipped, committed in time")
	txA := sys.Begin()
	a, _ := sys.DB.NewObject(txA, "Order")
	sys.DB.Set(txA, a, "id", "A")
	hA, _ := sys.Engine.ArmMilestone(txA, milestone)
	sys.DB.Invoke(txA, a, "receive")
	vc.Advance(5 * time.Minute)
	sys.DB.Invoke(txA, a, "pack")
	vc.Advance(5 * time.Minute)
	sys.DB.Invoke(txA, a, "ship")
	if err := txA.Commit(); err != nil {
		return err
	}
	hA.Stop()

	// --- Order 2: aborted — compensation commits. ------------------
	fmt.Fprintln(w, "-- order B: received, then the transaction aborts")
	txB := sys.Begin()
	b, _ := sys.DB.NewObject(txB, "Order")
	sys.DB.Set(txB, b, "id", "B")
	sys.DB.Invoke(txB, b, "receive")
	_ = txB.Abort() // the abort is the demonstration; it cannot fail here
	sys.Engine.WaitDetached()
	<-compDone // order A's compensation resolved (aborted)
	<-compDone // order B's compensation resolved (committed)

	// --- Order 3: stalls past its milestone. ------------------------
	fmt.Fprintln(w, "-- order C: received, then stalls past the 30-minute milestone")
	txC := sys.Begin()
	c, _ := sys.DB.NewObject(txC, "Order")
	sys.DB.Set(txC, c, "id", "C")
	sys.Engine.ArmMilestone(txC, milestone)
	sys.DB.Invoke(txC, c, "receive")
	vc.Advance(45 * time.Minute) // deadline passes while still active
	// Note: WaitDetached here would block until txC resolves — the
	// exclusive-causal compensation waits at commit for txC, and
	// WaitDetached does not yet refuse to wait on an open causal
	// trigger. Wait only for the escalation.
	<-escalated
	sys.DB.Invoke(txC, c, "pack")
	sys.DB.Invoke(txC, c, "ship")
	if err := txC.Commit(); err != nil {
		return err
	}
	sys.Engine.WaitDetached()
	<-compDone // order C's compensation resolved (aborted)

	fmt.Fprintf(w, "\nfulfilled: %d, compensations committed: %d, escalations: %d\n",
		fulfilled.Load(), compensations.Load(), escalations.Load())
	st := sys.Engine.Stats()
	fmt.Fprintf(w, "engine: %d events, %d composites, %d deferred, %d detached\n",
		st.Events, st.CompositesDetected, st.DeferredFired, st.DetachedFired)
	return nil
}
