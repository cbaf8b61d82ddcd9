// Commodity trading: monitoring of an index in the continuous
// consumption context (paper §3.4 names "monitoring of the Dow Jones
// index" as the canonical use of the continuous context). Each tick
// arrives in its own feed transaction, so the composite "a drop
// followed by a recovery within 5 minutes" spans transactions: it is
// declared with global scope and a validity interval, and its rule
// runs detached — the only coupling Table 1 permits for
// multi-transaction composites besides the causal variants.
//
//	go run ./examples/trading
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic" //lint:allow rawatomics demo-local signal counter, not an engine metric
	"time"

	reach "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run feeds index ticks through the v-shape monitor on a fresh
// database under a virtual clock, writing what happens to w.
func run(w io.Writer) error {
	vc := reach.NewVirtualClock(time.Date(1995, 3, 6, 9, 30, 0, 0, time.UTC))
	sys, err := reach.Open(reach.Options{Clock: vc})
	if err != nil {
		return err
	}
	defer sys.Close()

	index := reach.NewClass("Index",
		reach.Attr{Name: "symbol", Type: reach.TString},
		reach.Attr{Name: "value", Type: reach.TFloat},
	)
	index.Monitored = true
	index.Method("tick", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "value", args[0])
	})
	if err := sys.RegisterClass(index); err != nil {
		return err
	}

	tx := sys.Begin()
	dow, _ := sys.DB.NewObject(tx, "Index")
	sys.DB.Set(tx, dow, "symbol", "DJIA")
	sys.DB.Set(tx, dow, "value", 4000.0)
	sys.DB.SetRoot(tx, "DJIA", dow)
	if err := tx.Commit(); err != nil {
		return err
	}

	// Composite event: a drop tick then a rise tick, across feed
	// transactions, each drop opening its own window (continuous
	// context), valid for 5 minutes.
	tickAfter := reach.MethodSpec{Class: "Index", Method: "tick", When: reach.After}.Key()
	vshape := &reach.Composite{
		Name: "v-shape",
		Expr: reach.Seq{Exprs: []reach.Expr{
			reach.Prim{Key: tickAfter},
			reach.Prim{Key: tickAfter},
		}},
		Policy:   reach.Continuous,
		Scope:    reach.ScopeGlobal,
		Validity: 5 * time.Minute,
	}
	if err := sys.Engine.DefineComposite(vshape); err != nil {
		return err
	}

	var signals atomic.Int64
	err = sys.Engine.AddRule(&reach.Rule{
		Name:       "VShapeSignal",
		EventKey:   vshape.Key(),
		ActionMode: reach.Detached,
		Cond: func(rc *reach.RuleCtx) (bool, error) {
			parts := rc.Trigger.Flatten()
			first := parts[0].Args[0].(float64)
			second := parts[1].Args[0].(float64)
			return second > first, nil // only rising pairs
		},
		Action: func(rc *reach.RuleCtx) error {
			parts := rc.Trigger.Flatten()
			signals.Add(1)
			fmt.Fprintf(w, "  [signal] pair %.1f -> %.1f across %d feed txns\n",
				parts[0].Args[0], parts[1].Args[0], len(rc.Trigger.Transactions()))
			return nil
		},
	})
	if err != nil {
		return err
	}

	// Feed: each tick in its own transaction, time advancing.
	feed := []float64{3990, 3985, 4010, 3970, 3960}
	for _, v := range feed {
		tx := sys.Begin()
		if _, err := sys.DB.Invoke(tx, dow, "tick", v); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		vc.Advance(time.Minute)
	}
	sys.Engine.DrainComposers()
	sys.Engine.WaitDetached()
	fmt.Fprintf(w, "signals after first feed: %d\n", signals.Load())

	// Validity: after 10 quiet minutes the pending windows expire and
	// a late rise does not pair with stale drops.
	vc.Advance(10 * time.Minute)
	dropped := sys.Engine.GCExpired()
	fmt.Fprintf(w, "semi-composed occurrences garbage-collected after validity lapse: %d\n", dropped)

	tx2 := sys.Begin()
	sys.DB.Invoke(tx2, dow, "tick", 4050.0)
	if err := tx2.Commit(); err != nil {
		return err
	}
	sys.Engine.DrainComposers()
	sys.Engine.WaitDetached()
	fmt.Fprintf(w, "signals after late tick: %d (stale windows must not fire)\n", signals.Load())

	st := sys.Engine.Stats()
	fmt.Fprintf(w, "engine: %d events, %d composites detected, %d detached firings, %d GCed\n",
		st.Events, st.CompositesDetected, st.DetachedFired, st.SemiComposedGCed)
	return nil
}
