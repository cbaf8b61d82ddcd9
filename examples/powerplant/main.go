// Power-plant monitoring: the paper's §6.1 scenario. A cooling river
// feeds a reactor; whenever the water level drops below a mark while
// the water is warm and the reactor runs hot, planned power output is
// reduced by 5% — the WaterLevel rule, written in the REACH rule
// language exactly as in the paper. A second, composite rule raises a
// detached alert when three low-level readings arrive within one
// transaction, and an exclusive-causal contingency logs compensations
// for aborted control transactions.
//
//	go run ./examples/powerplant
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	reach "repro"
)

func registerSchema(sys *reach.System, w io.Writer) error {
	river := reach.NewClass("River",
		reach.Attr{Name: "name", Type: reach.TString},
		reach.Attr{Name: "level", Type: reach.TInt},
		reach.Attr{Name: "temp", Type: reach.TFloat},
	)
	river.Monitored = true
	river.Method("updateWaterLevel", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "level", args[0])
	})
	river.Method("getWaterTemp", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		return ctx.GetFloat(self, "temp")
	})

	reactor := reach.NewClass("Reactor",
		reach.Attr{Name: "name", Type: reach.TString},
		reach.Attr{Name: "heatOutput", Type: reach.TFloat},
		reach.Attr{Name: "plannedPower", Type: reach.TFloat},
		reach.Attr{Name: "alerts", Type: reach.TInt},
	)
	reactor.Monitored = true
	reactor.Method("getHeatOutput", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		return ctx.GetFloat(self, "heatOutput")
	})
	reactor.Method("reducePlannedPower", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		frac := args[0].(float64)
		p, err := ctx.GetFloat(self, "plannedPower")
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  [action] reducing planned power of %v by %.0f%%\n", self, frac*100)
		return nil, ctx.Set(self, "plannedPower", p*(1-frac))
	})
	reactor.Method("raiseAlert", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
		n, err := ctx.GetInt(self, "alerts")
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  [action] ALERT #%d on %v: sustained low water\n", n+1, self)
		return nil, ctx.Set(self, "alerts", n+1)
	})
	for _, c := range []*reach.Class{river, reactor} {
		if err := sys.RegisterClass(c); err != nil {
			return err
		}
	}
	return nil
}

// plantRules holds the WaterLevel rule verbatim from the paper plus a
// composite low-water alert (three low readings in one transaction,
// detected by the event algebra, fired deferred at EOT).
const plantRules = `
rule WaterLevel {
    prio 5;
    decl River *river, int x, Reactor *reactor named "BlockA";
    event after river->updateWaterLevel(x);
    cond imm x < 37 and river->getWaterTemp() > 24.5
             and reactor->getHeatOutput() > 1000000;
    action imm reactor->reducePlannedPower(0.05);
};

rule SustainedLowWater {
    prio 3;
    decl River *r1, int a, River *r2, int b, River *r3, int c,
         Reactor *reactor named "BlockA";
    event seq(after r1->updateWaterLevel(a),
              after r2->updateWaterLevel(b),
              after r3->updateWaterLevel(c));
    cond deferred a < 37 and b < 37 and c < 37;
    action deferred reactor->raiseAlert();
};
`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the scenarios against a fresh plant, writing what happens
// to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "reach-powerplant")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := reach.Open(reach.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := registerSchema(sys, w); err != nil {
		return err
	}

	// Plant setup.
	tx := sys.Begin()
	river, _ := sys.DB.NewObject(tx, "River")
	sys.DB.Set(tx, river, "name", "Rhine")
	sys.DB.Set(tx, river, "temp", 26.5)
	reactor, _ := sys.DB.NewObject(tx, "Reactor")
	sys.DB.Set(tx, reactor, "name", "Block A")
	sys.DB.Set(tx, reactor, "heatOutput", 1_800_000.0)
	sys.DB.Set(tx, reactor, "plannedPower", 1200.0)
	if err := sys.DB.SetRoot(tx, "BlockA", reactor); err != nil {
		return err
	}
	sys.DB.SetRoot(tx, "Rhine", river)
	if err := tx.Commit(); err != nil {
		return err
	}

	loaded, err := sys.LoadRules(plantRules)
	if err != nil {
		return err
	}
	defer loaded.Stop()
	fmt.Fprintf(w, "loaded %d rules, %d composite events\n", len(loaded.Rules), len(loaded.Composites))

	// Scenario 1: one low reading — WaterLevel fires immediately.
	fmt.Fprintln(w, "\n-- sensor reports level 30 (low, warm river, hot reactor)")
	tx1 := sys.Begin()
	if _, err := sys.DB.Invoke(tx1, river, "updateWaterLevel", int64(30)); err != nil {
		return err
	}
	if err := tx1.Commit(); err != nil {
		return err
	}

	// Scenario 2: high reading — condition false, nothing fires.
	fmt.Fprintln(w, "\n-- sensor reports level 80 (normal)")
	tx2 := sys.Begin()
	sys.DB.Invoke(tx2, river, "updateWaterLevel", int64(80))
	if err := tx2.Commit(); err != nil {
		return err
	}

	// Scenario 3: three low readings in one control transaction — the
	// composite SustainedLowWater fires deferred at EOT (after the
	// three immediate reductions).
	fmt.Fprintln(w, "\n-- control transaction with three low readings")
	tx3 := sys.Begin()
	for _, lvl := range []int64{35, 33, 31} {
		if _, err := sys.DB.Invoke(tx3, river, "updateWaterLevel", lvl); err != nil {
			return err
		}
	}
	if err := tx3.Commit(); err != nil {
		return err
	}

	// Scenario 4: an aborted control transaction leaves no trace —
	// the immediate reduction is rolled back with it, and the
	// half-composed sequence is discarded (life-span = transaction).
	fmt.Fprintln(w, "\n-- aborted control transaction (two low readings, then abort)")
	before := currentPower(sys, reactor)
	tx4 := sys.Begin()
	sys.DB.Invoke(tx4, river, "updateWaterLevel", int64(20))
	sys.DB.Invoke(tx4, river, "updateWaterLevel", int64(21))
	_ = tx4.Abort() // the abort is the demonstration; it cannot fail here
	after := currentPower(sys, reactor)
	fmt.Fprintf(w, "  planned power before/after abort: %.2f / %.2f (unchanged)\n", before, after)

	sys.Engine.WaitDetached()
	tx5 := sys.Begin()
	power, _ := sys.DB.Get(tx5, reactor, "plannedPower")
	alerts, _ := sys.DB.Get(tx5, reactor, "alerts")
	if err := tx5.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfinal planned power: %.2f MW, alerts raised: %d\n", power, alerts)
	st := sys.Engine.Stats()
	fmt.Fprintf(w, "engine: %d events, %d immediate, %d deferred, %d composites detected\n",
		st.Events, st.ImmediateFired, st.DeferredFired, st.CompositesDetected)
	return nil
}

func currentPower(sys *reach.System, reactor *reach.Object) float64 {
	tx := sys.Begin()
	defer tx.Commit()
	v, _ := sys.DB.Get(tx, reactor, "plannedPower")
	f, _ := v.(float64)
	return f
}
