// Package bench builds the workloads and fixtures for the experiment
// suite in DESIGN.md (T1, F1, F2, E1–E14) that cmd/reachbench runs to
// regenerate every table and figure of EXPERIMENTS.md.
package bench

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/clock"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/layered"
	"repro/internal/oodb"
)

// Epoch is the fixed start instant of every virtual clock.
var Epoch = time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC)

// Fixture is a ready-to-drive REACH instance with the benchmark
// schema registered.
type Fixture struct {
	DB     *oodb.DB
	Engine *eca.Engine
	Clock  *clock.Virtual
	Sensor *oodb.Object
}

// SensorPingAfter is the spec key of the workhorse method event.
func SensorPingAfter() string {
	return event.MethodSpec{Class: "Sensor", Method: "ping", When: event.After}.Key()
}

// SensorResetAfter is the second primitive used in composites.
func SensorResetAfter() string {
	return event.MethodSpec{Class: "Sensor", Method: "reset", When: event.After}.Key()
}

// sensorClass builds the benchmark class; monitored selects whether
// the sentry traps it.
func sensorClass(monitored bool) *oodb.Class { return namedSensorClass("Sensor", monitored) }

// namedSensorClass is sensorClass under another class name, whose
// events have keys of their own.
func namedSensorClass(name string, monitored bool) *oodb.Class {
	c := oodb.NewClass(name,
		oodb.Attr{Name: "val", Type: oodb.TInt},
		oodb.Attr{Name: "hits", Type: oodb.TInt},
	)
	c.Monitored = monitored
	c.Method("ping", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "val", args[0])
	})
	c.Method("reset", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "val", int64(0))
	})
	return c
}

// NewFixture builds an in-memory REACH instance with a (monitored or
// unmonitored) Sensor class and one instance.
func NewFixture(monitored bool, opts eca.Options) *Fixture {
	vc := clock.NewVirtual(Epoch)
	db, err := oodb.Open(oodb.Options{Clock: vc})
	if err != nil {
		panic(err)
	}
	if err := db.Dictionary().Register(sensorClass(monitored)); err != nil {
		panic(err)
	}
	engine := eca.New(db, opts)
	tx := db.Begin()
	obj, err := db.NewObject(tx, "Sensor")
	if err != nil {
		panic(err)
	}
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	return &Fixture{DB: db, Engine: engine, Clock: vc, Sensor: obj}
}

// Close shuts the fixture down.
func (f *Fixture) Close() {
	f.Engine.WaitDetached()
	f.Engine.Close()
	f.DB.Close()
}

// Ping drives one monitored method invocation in its own transaction.
func (f *Fixture) Ping(v int64) error {
	tx := f.DB.Begin()
	if _, err := f.DB.Invoke(tx, f.Sensor, "ping", v); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// PingN drives n invocations inside one transaction.
func (f *Fixture) PingN(n int) error {
	tx := f.DB.Begin()
	for i := 0; i < n; i++ {
		if _, err := f.DB.Invoke(tx, f.Sensor, "ping", int64(i)); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// AddNoopRules registers n no-op immediate rules on ping.
func (f *Fixture) AddNoopRules(n int, mode eca.Coupling) error {
	for i := 0; i < n; i++ {
		if err := f.Engine.AddRule(&eca.Rule{
			Name:       fmt.Sprintf("noop-%d-%v", i, mode),
			EventKey:   SensorPingAfter(),
			ActionMode: mode,
			Action:     func(*eca.RuleCtx) error { return nil },
		}); err != nil {
			return err
		}
	}
	return nil
}

// AddBusyRules registers n immediate rules whose action spins for
// roughly cost (virtualized as object work: attribute increments).
func (f *Fixture) AddBusyRules(n int, work int) error {
	obj := f.Sensor
	for i := 0; i < n; i++ {
		if err := f.Engine.AddRule(&eca.Rule{
			Name:       fmt.Sprintf("busy-%d", i),
			EventKey:   SensorPingAfter(),
			ActionMode: eca.Immediate,
			Action: func(rc *eca.RuleCtx) error {
				c := rc.Ctx()
				for w := 0; w < work; w++ {
					h, err := c.GetInt(obj, "hits")
					if err != nil {
						return err
					}
					if err := c.Set(obj, "hits", h+1); err != nil {
						return err
					}
				}
				return nil
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

// DefineSeqComposites defines k two-step composites over ping→reset.
func (f *Fixture) DefineSeqComposites(k int, scope algebra.Scope) error {
	for i := 0; i < k; i++ {
		comp := &algebra.Composite{
			Name: fmt.Sprintf("pair-%d", i),
			Expr: algebra.Seq{Exprs: []algebra.Expr{
				algebra.Prim{Key: SensorPingAfter()},
				algebra.Prim{Key: SensorResetAfter()},
			}},
			Policy: algebra.Chronicle,
			Scope:  scope,
		}
		if scope == algebra.ScopeGlobal {
			comp.Validity = time.Hour
		}
		if err := f.Engine.DefineComposite(comp); err != nil {
			return err
		}
	}
	return nil
}

// DefineDeepComposites defines k composites whose expression is a
// long same-key sequence: every occurrence updates several positions
// and triggers chain matching, making each feed genuinely expensive —
// the regime in which asynchronous composition pays off.
func (f *Fixture) DefineDeepComposites(k, depth int) error {
	for i := 0; i < k; i++ {
		exprs := make([]algebra.Expr, depth)
		for d := range exprs {
			exprs[d] = algebra.Prim{Key: SensorPingAfter()}
		}
		comp := &algebra.Composite{
			Name:     fmt.Sprintf("deep-%d", i),
			Expr:     algebra.Seq{Exprs: exprs},
			Policy:   algebra.Chronicle,
			Scope:    algebra.ScopeGlobal,
			Validity: time.Hour,
		}
		if err := f.Engine.DefineComposite(comp); err != nil {
			return err
		}
	}
	return nil
}

// LayeredFixture is the §4 baseline: the same schema behind a closed
// OODB with an active layer on top.
type LayeredFixture struct {
	Closed *layered.ClosedOODB
	Layer  *layered.Layer
	Sensor *oodb.Object
}

// NewLayeredFixture builds the layered baseline.
func NewLayeredFixture() *LayeredFixture {
	closed, err := layered.NewClosed(oodb.Options{Clock: clock.NewVirtual(Epoch)})
	if err != nil {
		panic(err)
	}
	// The closed system's classes are never monitored: there is no
	// sentry to deliver to.
	if err := closed.Dictionary().Register(sensorClass(false)); err != nil {
		panic(err)
	}
	ft := closed.Begin()
	obj, err := closed.NewObject(ft, "Sensor")
	if err != nil {
		panic(err)
	}
	if err := ft.Commit(); err != nil {
		panic(err)
	}
	return &LayeredFixture{Closed: closed, Layer: layered.NewLayer(closed), Sensor: obj}
}

// Close shuts the baseline down.
func (lf *LayeredFixture) Close() { lf.Closed.Close() }

// Table1Rows regenerates the paper's Table 1 from the engine's
// admission predicate, formatted exactly like the paper's rows.
func Table1Rows() [][]string {
	header := []string{"", "Single Method", "Purely Temporal", "Composite 1 TX", "Composite n TXs"}
	names := map[eca.Coupling]string{
		eca.Immediate:                "Immediate",
		eca.Deferred:                 "Deferred",
		eca.Detached:                 "Detached",
		eca.DetachedParallelCausal:   "Par.caus.dep.",
		eca.DetachedSequentialCausal: "Seq.caus.dep.",
		eca.DetachedExclusiveCausal:  "Exc.caus.dep.",
	}
	rows := [][]string{header}
	for _, mode := range eca.Couplings() {
		row := []string{names[mode]}
		for _, cat := range eca.Categories() {
			cell := "N"
			if eca.Supported(cat, mode) {
				cell = "Y"
			}
			// The paper marks composite-1TX immediate "(N)": correct
			// semantically, rejected for performance.
			if mode == eca.Immediate && cat == eca.CompositeSingleTxn {
				cell = "(N)"
			}
			switch {
			case mode == eca.DetachedParallelCausal && cat == eca.CompositeMultiTxn:
				cell += " (all commit)"
			case mode == eca.DetachedSequentialCausal && cat == eca.CompositeMultiTxn:
				cell += " (all commit)"
			case mode == eca.DetachedExclusiveCausal && cat == eca.CompositeMultiTxn:
				cell += " (all abort)"
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return rows
}

// PaperTable1 is the expected matrix, cell for cell, for verification.
var PaperTable1 = map[eca.Coupling][4]bool{
	eca.Immediate:                {true, false, false, false},
	eca.Deferred:                 {true, false, true, false},
	eca.Detached:                 {true, true, true, true},
	eca.DetachedParallelCausal:   {true, false, true, true},
	eca.DetachedSequentialCausal: {true, false, true, true},
	eca.DetachedExclusiveCausal:  {true, false, true, true},
}

// VerifyTable1 checks the engine's admission predicate against the
// paper's matrix and returns the mismatching cells (empty = exact
// reproduction).
func VerifyTable1() []string {
	var bad []string
	for mode, row := range PaperTable1 {
		for i, cat := range eca.Categories() {
			if eca.Supported(cat, mode) != row[i] {
				bad = append(bad, fmt.Sprintf("%v/%v", mode, cat))
			}
		}
	}
	return bad
}

// Figure2Trace drives the water-level scenario and returns the
// message flow of Figure 2 as observed: method call → sentry →
// method ECA-manager → rule firing and propagation to the composite
// ECA-manager → event objects.
func Figure2Trace() ([]string, error) {
	f := NewFixture(true, eca.Options{})
	defer f.Close()
	var traceLines []string
	trace := func(format string, args ...any) {
		traceLines = append(traceLines, fmt.Sprintf(format, args...))
	}
	comp := &algebra.Composite{
		Name: "ping-reset",
		Expr: algebra.Seq{Exprs: []algebra.Expr{
			algebra.Prim{Key: SensorPingAfter()},
			algebra.Prim{Key: SensorResetAfter()},
		}},
		Policy: algebra.Chronicle,
		Scope:  algebra.ScopeTransaction,
	}
	if err := f.Engine.DefineComposite(comp); err != nil {
		return nil, err
	}
	if err := f.Engine.AddRule(&eca.Rule{
		Name: "immediateRule", EventKey: SensorPingAfter(), ActionMode: eca.Immediate,
		Action: func(rc *eca.RuleCtx) error {
			trace("  method ECA-manager fires rule %q immediately (txn %d, subtransaction %d)",
				"immediateRule", rc.Trigger.Txn, rc.Txn.ID())
			return nil
		},
	}); err != nil {
		return nil, err
	}
	if err := f.Engine.AddRule(&eca.Rule{
		Name: "compositeRule", EventKey: comp.Key(), ActionMode: eca.Deferred,
		Action: func(rc *eca.RuleCtx) error {
			trace("  composite ECA-manager fires rule %q deferred at EOT with %d constituents",
				"compositeRule", len(rc.Trigger.Flatten()))
			return nil
		},
	}); err != nil {
		return nil, err
	}
	tx := f.DB.Begin()
	trace("BOT txn %d", tx.ID())
	trace("method call Sensor.ping -> sentry traps -> event object created")
	if _, err := f.DB.Invoke(tx, f.Sensor, "ping", int64(1)); err != nil {
		return nil, err
	}
	trace("go-ahead returned to application (no pending immediate composite)")
	trace("method call Sensor.reset -> sentry traps -> propagate to composite ECA-manager")
	if _, err := f.DB.Invoke(tx, f.Sensor, "reset"); err != nil {
		return nil, err
	}
	trace("EOT: drain composers, flush txn-scoped compositions, run deferred queue")
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	trace("commit txn %d", tx.ID())
	st := f.Engine.Stats()
	trace("stats: %d events, %d immediate, %d deferred, %d composites",
		st.Events, st.ImmediateFired, st.DeferredFired, st.CompositesDetected)
	return traceLines, nil
}

// Figure1Trace exercises the Open OODB architecture of Figure 1: the
// sentry (dispatcher) routing to policy managers — persistence
// (flush at commit), transactions (EOT processing), indexing (an ECA-
// maintained index) — over one workload, reporting which modules ran.
func Figure1Trace(dir string) ([]string, error) {
	vc := clock.NewVirtual(Epoch)
	db, err := oodb.Open(oodb.Options{Dir: dir, Clock: vc})
	if err != nil {
		return nil, err
	}
	engine := eca.New(db, eca.Options{})
	defer engine.Close()
	defer db.Close()
	if err := db.Dictionary().Register(sensorClass(true)); err != nil {
		return nil, err
	}
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }

	add("application programming interface: begin transaction")
	tx := db.Begin()
	obj, err := db.NewObject(tx, "Sensor")
	if err != nil {
		return nil, err
	}
	add("meta-architecture: sentry traps Sensor.__create__ (useful overhead)")
	if err := db.SetRoot(tx, "s1", obj); err != nil {
		return nil, err
	}
	add("persistence PM: object registered as root %q", "s1")
	if _, err := db.Invoke(tx, obj, "ping", int64(7)); err != nil {
		return nil, err
	}
	add("sentry: method event Sensor.ping dispatched to ECA-managers")
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	add("transaction PM: EOT processing, then durable commit (WAL force)")
	st := db.StorageStats()
	add("address space manager (EXODUS stand-in): %d pages, %d WAL syncs", st.Pages, st.WALSyncs)
	useful, useless, _ := engine.Dispatcher().Stats()
	add("sentry overhead counters: useful=%d useless=%d", useful, useless)
	return lines, nil
}
