package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic" //lint:allow rawatomics E14's per-run load counters are local measurement accumulators, not metrics
	"time"

	"repro/internal/algebra"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/layered"
	"repro/internal/oodb"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Row is one measured configuration of one experiment.
type Row struct {
	Experiment  string
	Config      string
	Ops         int
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
	Extra       string
}

func measure(experiment, config string, ops int, fn func()) Row {
	// Settle the heap first: a garbage-heavy predecessor (E5 buffers
	// hundreds of semi-composed occurrences) otherwise leaves its GC
	// debt to be paid inside this measurement window, making rows
	// depend on experiment order.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Row{
		Experiment:  experiment,
		Config:      config,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
	}
}

// RunE1 measures the sentry overhead classes of §6.2/[WSTR93]:
// unmonitored execution, useless overhead (monitored, no subscriber),
// potentially-useful overhead (subscriber disabled), and useful
// overhead (a rule fires).
func RunE1(n int) []Row {
	var rows []Row

	unmon := NewFixture(false, eca.Options{})
	rows = append(rows, measure("E1-sentry", "unmonitored", n, func() {
		unmon.PingN(n)
	}))
	unmon.Close()

	useless := NewFixture(true, eca.Options{})
	rows = append(rows, measure("E1-sentry", "useless (no subscriber)", n, func() {
		useless.PingN(n)
	}))
	_, ul, _ := useless.Engine.Dispatcher().Stats()
	rows[len(rows)-1].Extra = fmt.Sprintf("useless-hits=%d", ul)
	useless.Close()

	pot := NewFixture(true, eca.Options{})
	pot.AddNoopRules(1, eca.Immediate)
	pot.Engine.Dispatcher().SetEnabled(SensorPingAfter(), false)
	rows = append(rows, measure("E1-sentry", "potentially useful (disabled)", n, func() {
		pot.PingN(n)
	}))
	pot.Close()

	useful := NewFixture(true, eca.Options{})
	useful.AddNoopRules(1, eca.Immediate)
	rows = append(rows, measure("E1-sentry", "useful (rule fires)", n, func() {
		useful.PingN(n)
	}))
	useful.Close()
	return rows
}

// RunE2 compares the integrated architecture against the §4 layered
// baseline. Method events: the sentry path (with subtransaction
// isolation per rule firing) against the wrapper path (no isolation —
// partial rule effects on failure). State changes: the integrated
// system pays per actual change, while the layered system must poll —
// a sweep proportional to the monitored state size, whatever the
// change rate, because "changes of state could not be detected as
// events" in a closed system.
func RunE2(n int) []Row {
	var rows []Row

	integrated := NewFixture(true, eca.Options{})
	integrated.AddNoopRules(1, eca.Immediate)
	r := measure("E2-architecture", "method events, integrated (sentry)", n, func() {
		integrated.PingN(n)
	})
	r.Extra = "per-firing subtransaction isolation"
	rows = append(rows, r)
	integrated.Close()

	lf := NewLayeredFixture()
	lf.Layer.AddRule(&layered.Rule{
		Name: "r", EventKey: SensorPingAfter(),
		Action: func(*layered.RuleCtx) error { return nil },
	})
	ft := lf.Closed.Begin()
	r = measure("E2-architecture", "method events, layered (wrapper)", n, func() {
		for i := 0; i < n; i++ {
			lf.Layer.Invoke(ft, lf.Sensor, "ping", int64(i))
		}
	})
	r.Extra = "no isolation; misses direct calls"
	rows = append(rows, r)
	ft.Commit()
	lf.Close()

	// State-change detection with a growing monitored population.
	// Each iteration updates one object and requires detection; the
	// layered system sweeps everything it tracks.
	for _, tracked := range []int{10, 100, 1000} {
		updates := n / 10

		vc := clock.NewVirtual(Epoch)
		db, _ := oodb.Open(oodb.Options{Clock: vc})
		db.Dictionary().Register(sensorClass(true))
		engine := eca.New(db, eca.Options{})
		engine.AddRule(&eca.Rule{
			Name:       "watch",
			EventKey:   event.StateSpec{Class: "Sensor", Attr: "val"}.Key(),
			ActionMode: eca.Immediate,
			Action:     func(*eca.RuleCtx) error { return nil },
		})
		setup := db.Begin()
		objs := make([]*oodb.Object, tracked)
		for i := range objs {
			objs[i], _ = db.NewObject(setup, "Sensor")
		}
		setup.Commit()
		cfg := fmt.Sprintf("state change, %d monitored objects, integrated", tracked)
		rows = append(rows, measure("E2-architecture", cfg, updates, func() {
			tx := db.Begin()
			for i := 0; i < updates; i++ {
				db.Set(tx, objs[i%tracked], "val", int64(i))
			}
			tx.Commit()
		}))
		engine.Close()
		db.Close()

		lf2 := NewLayeredFixture()
		lf2.Layer.AddRule(&layered.Rule{
			Name: "watch", EventKey: event.StateSpec{Class: "Sensor", Attr: "val"}.Key(),
			Action: func(*layered.RuleCtx) error { return nil },
		})
		ft2 := lf2.Closed.Begin()
		lobjs := make([]*oodb.Object, tracked)
		for i := range lobjs {
			lobjs[i], _ = lf2.Closed.NewObject(ft2, "Sensor")
			lf2.Layer.Track(ft2, lobjs[i])
		}
		cfg = fmt.Sprintf("state change, %d monitored objects, layered poll", tracked)
		r := measure("E2-architecture", cfg, updates, func() {
			for i := 0; i < updates; i++ {
				lf2.Closed.Set(ft2, lobjs[i%tracked], "val", int64(i))
				lf2.Layer.Poll(ft2) // sweep everything to find one change
			}
		})
		r.Extra = fmt.Sprintf("poll-reads=%d", lf2.Layer.PollReads)
		rows = append(rows, r)
		ft2.Commit()
		lf2.Close()
	}
	return rows
}

// RunE3 compares sequential (ring-sequence) and parallel (sibling
// subtransaction) execution of k rules per event, across action costs
// — the measurement the paper planned once nested transactions landed
// (§6.4). The crossover appears as action cost grows.
func RunE3(ruleCounts []int, works []int, events int) []Row {
	var rows []Row
	for _, k := range ruleCounts {
		for _, work := range works {
			for _, strategy := range []eca.ExecStrategy{eca.SequentialExec, eca.ParallelExec} {
				rows = append(rows, runE3Arm(strategy, k, work, events))
			}
		}
	}
	return rows
}

// runE3Arm measures one E3 configuration: k busy rules of the given
// work, fired by events pings under one execution strategy. Parallel
// siblings read then write one object, so their upgrades collide: the
// pings whose transaction a deadlock victimised are counted, and any
// other failure panics.
func runE3Arm(strategy eca.ExecStrategy, k, work, events int) Row {
	name := "sequential"
	if strategy == eca.ParallelExec {
		name = "parallel"
	}
	f := NewFixture(true, eca.Options{Exec: strategy})
	defer f.Close()
	f.AddBusyRules(k, work)
	cfg := fmt.Sprintf("%d rules × work %d, %s", k, work, name)
	victims := 0
	row := measure("E3-rule-exec", cfg, events, func() {
		for i := 0; i < events; i++ {
			if err := f.Ping(int64(i)); txn.IsRetriable(err) {
				victims++
			} else if err != nil {
				panic(err)
			}
		}
	})
	row.Extra = fmt.Sprintf("victims=%d", victims)
	return row
}

// RunE4 compares synchronous and asynchronous event composition: the
// paper requires that "the event composition process should be
// executed asynchronously with normal processing to avoid unnecessary
// delays" (§2). Measured is the application-visible latency of the
// detecting transaction; the time to finish composition afterwards is
// reported alongside.
func RunE4(composites []int, events int) []Row {
	var rows []Row
	for _, k := range composites {
		for _, syncMode := range []bool{false, true} {
			name := "async (REACH)"
			if syncMode {
				name = "sync (inline)"
			}
			f := NewFixture(true, eca.Options{SyncComposition: syncMode, ComposerBuffer: events + 16})
			f.DefineDeepComposites(k, 8)
			cfg := fmt.Sprintf("%d deep composites, %s", k, name)
			row := measure("E4-composition", cfg, events, func() {
				f.PingN(events) // application path only
			})
			drainStart := time.Now()
			f.Engine.DrainComposers()
			row.Extra = fmt.Sprintf("composition drained in %v", time.Since(drainStart).Round(time.Microsecond))
			rows = append(rows, row)
			f.Close()
		}
	}
	return rows
}

// RunE5 measures the immediate-composite stall: the per-event cost of
// admitting immediate rules on composite events (unsafe mode), which
// forces every primitive event to wait for composer acknowledgement —
// the "(N)" of Table 1 — against the REACH design where composite
// rules are deferred.
func RunE5(composites []int, events int) []Row {
	var rows []Row
	for _, k := range composites {
		// REACH design: deferred composite rules, async composition.
		f := NewFixture(true, eca.Options{})
		f.DefineSeqComposites(k, algebra.ScopeTransaction)
		for i := 0; i < k; i++ {
			f.Engine.AddRule(&eca.Rule{
				Name:       fmt.Sprintf("def-%d", i),
				EventKey:   event.CompositeSpec{Name: fmt.Sprintf("pair-%d", i)}.Key(),
				ActionMode: eca.Deferred,
				Action:     func(*eca.RuleCtx) error { return nil },
			})
		}
		cfg := fmt.Sprintf("%d composites, deferred (REACH)", k)
		rows = append(rows, measure("E5-imm-composite", cfg, events, func() {
			f.PingN(events)
		}))
		f.Close()

		// Rejected design: immediate composite rules; every event
		// stalls for the negative acknowledgement.
		g := NewFixture(true, eca.Options{AllowUnsafeImmediateComposite: true})
		g.DefineSeqComposites(k, algebra.ScopeTransaction)
		for i := 0; i < k; i++ {
			g.Engine.AddRule(&eca.Rule{
				Name:       fmt.Sprintf("imm-%d", i),
				EventKey:   event.CompositeSpec{Name: fmt.Sprintf("pair-%d", i)}.Key(),
				ActionMode: eca.Immediate,
				Action:     func(*eca.RuleCtx) error { return nil },
			})
		}
		cfg = fmt.Sprintf("%d composites, immediate (stall)", k)
		rows = append(rows, measure("E5-imm-composite", cfg, events, func() {
			g.PingN(events)
		}))
		g.Close()
	}
	return rows
}

// RunE6 compares the four consumption policies on the paper's §3.4
// stream shape (bursts of initiators followed by terminators),
// reporting both cost and the number of composites each policy
// detects.
func RunE6(events int) []Row {
	var rows []Row
	for _, pol := range []algebra.Policy{algebra.Recent, algebra.Chronicle, algebra.Continuous, algebra.Cumulative} {
		comp := &algebra.Composite{
			Name:   "pair",
			Expr:   algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: "E1"}, algebra.Prim{Key: "E2"}}},
			Policy: pol,
			Scope:  algebra.ScopeGlobal, Validity: time.Hour,
		}
		cp, err := algebra.NewComposer(comp)
		if err != nil {
			panic(err)
		}
		detected := 0
		row := measure("E6-consumption", pol.String(), events, func() {
			seq := uint64(0)
			for i := 0; i < events; i++ {
				seq++
				key := "E1"
				if i%3 == 2 { // two initiators, then a terminator
					key = "E2"
				}
				in := &event.Instance{SpecKey: key, Seq: seq, Txn: 1, Time: Epoch.Add(time.Duration(seq))}
				detected += len(cp.Feed(in))
			}
		})
		row.Extra = fmt.Sprintf("detected=%d pending=%d", detected, cp.Pending())
		rows = append(rows, row)
	}
	return rows
}

// RunE7 demonstrates the life-span rules of §3.3: without them,
// semi-composed events accumulate without bound; with transaction
// life-spans and validity-interval GC the system stays clean.
func RunE7(txns, eventsPer int) []Row {
	var rows []Row

	// Transaction-scoped: flushed at EOT, nothing accumulates.
	f := NewFixture(true, eca.Options{})
	f.DefineSeqComposites(1, algebra.ScopeTransaction)
	row := measure("E7-lifespan", "txn-scoped (flushed at EOT)", txns*eventsPer, func() {
		for t := 0; t < txns; t++ {
			f.PingN(eventsPer) // pings never complete ping→reset pairs
		}
		f.Engine.DrainComposers()
	})
	row.Extra = fmt.Sprintf("semi-composed=%d", f.Engine.SemiComposed())
	rows = append(rows, row)
	f.Close()

	// Global without GC: initiators pile up for the validity window.
	g := NewFixture(true, eca.Options{})
	g.DefineSeqComposites(1, algebra.ScopeGlobal)
	row = measure("E7-lifespan", "global, no GC yet", txns*eventsPer, func() {
		for t := 0; t < txns; t++ {
			g.PingN(eventsPer)
		}
		g.Engine.DrainComposers()
	})
	row.Extra = fmt.Sprintf("semi-composed=%d", g.Engine.SemiComposed())
	rows = append(rows, row)

	// …until the validity interval lapses and GC collects them.
	g.Clock.Advance(2 * time.Hour)
	collected := g.Engine.GCExpired()
	rows = append(rows, Row{
		Experiment: "E7-lifespan",
		Config:     "global, after validity GC",
		Ops:        collected,
		Extra:      fmt.Sprintf("collected=%d semi-composed=%d", collected, g.Engine.SemiComposed()),
	})
	g.Close()
	return rows
}

// RunE8 compares composer topologies (§6.3): many small composers on
// parallel goroutines versus one monolithic composer embedding every
// composite in a single graph.
func RunE8(k, events int) []Row {
	var rows []Row

	many := NewFixture(true, eca.Options{})
	many.DefineSeqComposites(k, algebra.ScopeGlobal)
	rows = append(rows, measure("E8-topology", fmt.Sprintf("%d small composers", k), events, func() {
		many.PingN(events)
		many.Engine.DrainComposers()
	}))
	many.Close()

	// Monolithic: a single composite whose expression is the
	// disjunction of all k pair-sequences — one graph, one goroutine.
	mono := NewFixture(true, eca.Options{})
	subs := make([]algebra.Expr, k)
	for i := range subs {
		subs[i] = algebra.Seq{Exprs: []algebra.Expr{
			algebra.Prim{Key: SensorPingAfter()},
			algebra.Prim{Key: SensorResetAfter()},
		}}
	}
	comp := &algebra.Composite{
		Name:   "monolith",
		Expr:   algebra.Disj{Exprs: subs},
		Policy: algebra.Chronicle,
		Scope:  algebra.ScopeGlobal, Validity: time.Hour,
	}
	if err := mono.Engine.DefineComposite(comp); err != nil {
		panic(err)
	}
	rows = append(rows, measure("E8-topology", fmt.Sprintf("1 monolithic graph (%d branches)", k), events, func() {
		mono.PingN(events)
		mono.Engine.DrainComposers()
	}))
	mono.Close()
	return rows
}

// RunE9 compares the distributed per-manager histories against a
// central log under concurrent event streams (§6.3's bottleneck
// argument), in two arms. In the first every worker raises Sensor.ping,
// so all of them share one ECA-manager and, in both modes, one history
// mutex per occurrence. In the second each worker raises the ping of a
// class of its own: the distributed mode logs each occurrence in its
// worker's manager, and only the central log is shared — the
// bottleneck §6.3 argues about.
func RunE9(workers, eventsPer int) []Row {
	var rows []Row
	for _, perWorker := range []bool{false, true} {
		for _, mode := range []eca.HistoryMode{eca.DistributedHistory, eca.CentralHistory} {
			name := "distributed (REACH)"
			if mode == eca.CentralHistory {
				name = "central log"
			}
			if perWorker {
				name += ", class per worker"
			} else {
				name += ", one class"
			}
			vc := clock.NewVirtual(Epoch)
			db, _ := oodb.Open(oodb.Options{Clock: vc})
			engine := eca.New(db, eca.Options{History: mode})
			classes := []string{"Sensor"}
			if perWorker {
				classes = classes[:0]
				for w := 0; w < workers; w++ {
					classes = append(classes, fmt.Sprintf("Sensor%d", w))
				}
			}
			for _, class := range classes {
				db.Dictionary().Register(namedSensorClass(class, true))
				engine.AddRule(&eca.Rule{
					Name:       "touch-" + class,
					EventKey:   event.MethodSpec{Class: class, Method: "ping", When: event.After}.Key(),
					ActionMode: eca.Immediate,
					Action:     func(*eca.RuleCtx) error { return nil },
				})
			}
			var sensors []*oodb.Object
			setup := db.Begin()
			for w := 0; w < workers; w++ {
				obj, _ := db.NewObject(setup, classes[w%len(classes)])
				sensors = append(sensors, obj)
			}
			setup.Commit()
			rows = append(rows, measure("E9-history", name, workers*eventsPer, func() {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						tx := db.Begin()
						for i := 0; i < eventsPer; i++ {
							db.Invoke(tx, sensors[w], "ping", int64(i))
						}
						tx.Commit()
					}()
				}
				wg.Wait()
			}))
			engine.Close()
			db.Close()
		}
	}
	return rows
}

// RunE10 measures rule dispatch: the REACH design (per-event-type ECA
// managers, the firing set found by one map lookup) against a
// global-rule-list design where every rule hangs off one key and
// filters by condition (§6.4: "minimize the search for the rule that
// is to be fired").
func RunE10(ruleCounts []int, events int) []Row {
	var rows []Row
	for _, n := range ruleCounts {
		// Selective: n rules on n distinct events; the fired event has
		// exactly one rule.
		sel := NewFixture(true, eca.Options{})
		for i := 0; i < n-1; i++ {
			sel.Engine.AddRule(&eca.Rule{
				Name:       fmt.Sprintf("other-%d", i),
				EventKey:   fmt.Sprintf("method:Other%d.m:after", i),
				ActionMode: eca.Immediate,
				Action:     func(*eca.RuleCtx) error { return nil },
			})
		}
		sel.AddNoopRules(1, eca.Immediate)
		rows = append(rows, measure("E10-dispatch", fmt.Sprintf("%d rules, ECA-managers", n), events, func() {
			sel.PingN(events)
		}))
		sel.Close()

		// Scan: all n rules on the same event, n-1 filtered out by
		// condition — the recognize-act-style scan.
		scan := NewFixture(true, eca.Options{})
		for i := 0; i < n-1; i++ {
			scan.Engine.AddRule(&eca.Rule{
				Name:       fmt.Sprintf("filtered-%d", i),
				EventKey:   SensorPingAfter(),
				ActionMode: eca.Immediate,
				Cond:       func(*eca.RuleCtx) (bool, error) { return false, nil },
				Action:     func(*eca.RuleCtx) error { return nil },
			})
		}
		scan.AddNoopRules(1, eca.Immediate)
		rows = append(rows, measure("E10-dispatch", fmt.Sprintf("%d rules, global scan", n), events, func() {
			scan.PingN(events)
		}))
		scan.Close()
	}
	return rows
}

// RunE11 measures nested-transaction overhead: n operations run flat,
// versus each operation in its own committed subtransaction — the
// set-up cost the paper wanted to quantify against parallel gains.
func RunE11(ops int) []Row {
	var rows []Row
	f := NewFixture(false, eca.Options{})
	rows = append(rows, measure("E11-nested", "flat transaction", ops, func() {
		tx := f.DB.Begin()
		for i := 0; i < ops; i++ {
			f.DB.Invoke(tx, f.Sensor, "ping", int64(i))
		}
		tx.Commit()
	}))
	rows = append(rows, measure("E11-nested", "one subtransaction per op", ops, func() {
		tx := f.DB.Begin()
		for i := 0; i < ops; i++ {
			child, _ := tx.BeginChild()
			f.DB.Invoke(child, f.Sensor, "ping", int64(i))
			child.Commit()
		}
		tx.Commit()
	}))
	f.Close()
	return rows
}

// RunE12 measures the storage substrate: insert throughput, the cost
// of forcing the log at commit, recovery time, and buffer-pool
// behaviour.
func RunE12(records int) []Row {
	var rows []Row
	dir, err := os.MkdirTemp("", "reach-bench-storage")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		panic(err)
	}
	payload := make([]byte, 128)
	rows = append(rows, measure("E12-storage", "insert (1 txn, force at commit)", records, func() {
		st.Begin(1)
		for i := 0; i < records; i++ {
			st.Insert(1, payload)
		}
		st.Commit(1)
	}))

	rows = append(rows, measure("E12-storage", "commit per record (fsync each)", records/10, func() {
		for i := 0; i < records/10; i++ {
			tid := uint64(100 + i)
			st.Begin(tid)
			st.Insert(tid, payload)
			st.Commit(tid)
		}
	}))
	stats := st.Stats()
	rows[len(rows)-1].Extra = fmt.Sprintf("wal-syncs=%d", stats.WALSyncs)

	// Crash recovery: commit more records, then abandon the store
	// without closing it (a simulated crash — dirty pages were never
	// flushed; the reopened store must redo from the log).
	st.Begin(2)
	for i := 0; i < records; i++ {
		st.Insert(2, payload)
	}
	st.Commit(2)
	start := time.Now()
	st2, err := storage.Open(dir, storage.Options{})
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	live := 0
	st2.Scan(func(storage.RID, []byte) { live++ })
	rows = append(rows, Row{
		Experiment: "E12-storage",
		Config:     "recovery (redo replay)",
		Ops:        live,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(max(live, 1)),
		Extra:      fmt.Sprintf("recovered-records=%d in %v", live, elapsed),
	})
	st2.Close()
	return rows
}

// RunE13 measures the contended raise→dispatch→commit path at g
// concurrent goroutines — the convoys this repo's group-commit WAL,
// striped lock table, and per-manager histories exist to dissolve. Each
// pair of configs is a within-run ablation: the same workload with
// group commit on versus every committer forcing its own fsync.
func RunE13(g, commits int) []Row {
	var rows []Row
	per := commits / g
	if per < 1 {
		per = 1
	}

	// Contended storage commits: g committers, one record each per
	// transaction, durable at commit.
	contended := func(disable bool) Row {
		dir, err := os.MkdirTemp("", "reach-bench-e13")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		st, err := storage.Open(dir, storage.Options{DisableGroupCommit: disable})
		if err != nil {
			panic(err)
		}
		defer st.Close()
		payload := make([]byte, 128)
		label := "group commit"
		if disable {
			label = "fsync per commit (ablated)"
		}
		row := measure("E13-contention", fmt.Sprintf("contended commit, %d goroutines, %s", g, label), g*per, func() {
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tid := uint64(1 + w*per + i)
						st.Begin(tid)
						st.Insert(tid, payload)
						st.Commit(tid)
					}
				}()
			}
			wg.Wait()
		})
		row.Extra = fmt.Sprintf("wal-syncs=%d", st.Stats().WALSyncs)
		return row
	}
	rows = append(rows, contended(false), contended(true))

	// Figure-2 flow under concurrency: the full raise→dispatch→commit
	// round trip — monitored method events through the sentry, an
	// immediate rule, a deferred rule drained at EOT, and a durable
	// commit — with one sensor per goroutine so the lock table sees
	// disjoint hot resources across stripes.
	flow := func(disable bool) Row {
		dir, err := os.MkdirTemp("", "reach-bench-e13-flow")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		vc := clock.NewVirtual(Epoch)
		db, err := oodb.Open(oodb.Options{
			Dir: dir, Clock: vc,
			Storage: storage.Options{DisableGroupCommit: disable},
		})
		if err != nil {
			panic(err)
		}
		if err := db.Dictionary().Register(sensorClass(true)); err != nil {
			panic(err)
		}
		engine := eca.New(db, eca.Options{})
		defer db.Close()
		defer engine.Close()
		if err := engine.AddRule(&eca.Rule{
			Name: "flow-imm", EventKey: SensorPingAfter(), ActionMode: eca.Immediate,
			Action: func(*eca.RuleCtx) error { return nil },
		}); err != nil {
			panic(err)
		}
		if err := engine.AddRule(&eca.Rule{
			Name: "flow-def", EventKey: SensorPingAfter(), ActionMode: eca.Deferred,
			Action: func(*eca.RuleCtx) error { return nil },
		}); err != nil {
			panic(err)
		}
		sensors := make([]*oodb.Object, g)
		setup := db.Begin()
		for i := range sensors {
			obj, err := db.NewObject(setup, "Sensor")
			if err != nil {
				panic(err)
			}
			if err := db.Persist(setup, obj); err != nil {
				panic(err)
			}
			sensors[i] = obj
		}
		if err := setup.Commit(); err != nil {
			panic(err)
		}
		label := "group commit"
		if disable {
			label = "fsync per commit (ablated)"
		}
		row := measure("E13-contention", fmt.Sprintf("figure-2 flow, %d goroutines, %s", g, label), g*per, func() {
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tx := db.Begin()
						if _, err := db.Invoke(tx, sensors[w], "ping", int64(i)); err != nil {
							tx.Abort()
							continue
						}
						tx.Commit()
					}
				}()
			}
			wg.Wait()
		})
		row.Extra = fmt.Sprintf("wal-syncs=%d", db.StorageStats().WALSyncs)
		return row
	}
	rows = append(rows, flow(false), flow(true))
	return rows
}

// RunE14 measures goodput and tail latency under offered load at 1x,
// 2x, and 4x the detached-pool capacity, with the overload governor
// on and ablated off. Each client drives admitted transactions whose
// monitored method triggers one rule per coupling mode — the detached
// one slow enough that the pool, not the lock table, is the
// bottleneck. With the governor on, excess load is refused at
// admission or shed from the detached pool and goodput holds near
// capacity; ablated off, raisers park on the full pool queue while
// holding their write locks and the system wedges until drained.
//
// Rows report goodput, refusals, sheds, and commit p99 in Extra and
// carry NsPerOp 0: an overload experiment measures refusal policy
// under saturation, not a per-op time.
func RunE14(baseClients int, window time.Duration) []Row {
	run := func(disabled bool, mult int) Row {
		sys, err := core.Open(core.Options{
			Governor: governor.Options{
				Disabled:      disabled,
				Hysteresis:    50 * time.Millisecond,
				AdmitDeadline: 10 * time.Millisecond,
				Interval:      2 * time.Millisecond,
			},
			Engine: eca.Options{Workers: 2, Queue: 16},
		})
		if err != nil {
			panic(err)
		}
		defer sys.Close()
		tank := oodb.NewClass("Tank", oodb.Attr{Name: "level", Type: oodb.TInt})
		tank.Monitored = true
		var fills atomic.Int64
		tank.Method("fill", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
			return nil, ctx.Set(self, "level", fills.Add(1))
		})
		tank.Method("noop", func(*oodb.Ctx, *oodb.Object, []any) (any, error) {
			return nil, nil
		})
		tank.Method("slow", func(*oodb.Ctx, *oodb.Object, []any) (any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		})
		if err := sys.RegisterClass(tank); err != nil {
			panic(err)
		}
		if _, err := sys.LoadRules(`
rule E14Imm { prio 5; decl Tank *t; event after t->fill(); action imm t->noop(); };
rule E14Def { prio 4; decl Tank *t; event after t->fill(); action deferred t->noop(); };
rule E14Det { prio 3; decl Tank *t; event after t->fill(); action detached t->slow(); };
`); err != nil {
			panic(err)
		}
		clients := baseClients * mult
		// The detached pool absorbs workers/slow() fills per second;
		// pace each client so the offered fill rate is mult times
		// that. The loop is closed (pacing starts after the previous
		// attempt returns), so admission-deadline waits under overload
		// throttle the offered load the way a real client's would.
		capacity := 2 * int(time.Second/time.Millisecond)
		pace := time.Duration(clients) * time.Second / time.Duration(mult*capacity)
		tanks := make([]*oodb.Object, clients)
		setup := sys.Begin()
		for i := range tanks {
			obj, err := sys.DB.NewObject(setup, "Tank")
			if err != nil {
				panic(err)
			}
			tanks[i] = obj
		}
		if err := setup.Commit(); err != nil {
			panic(err)
		}

		var committed, refused, attempts atomic.Int64
		lats := make([][]time.Duration, clients)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < clients; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					attempts.Add(1)
					t0 := time.Now()
					tx, err := sys.BeginTxn()
					if err != nil {
						// ErrOverloaded (admission refused) or
						// ErrShutdown once the drain below begins.
						refused.Add(1)
						continue
					}
					if _, err := sys.DB.Invoke(tx, tanks[w], "fill"); err != nil {
						// Detached spawn refused mid-drain; abort and
						// let the stop check above end the loop.
						_ = tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						continue
					}
					committed.Add(1)
					lats[w] = append(lats[w], time.Since(t0))
					time.Sleep(pace)
				}
			}()
		}
		time.Sleep(window)
		close(stop)
		elapsed := time.Since(start)
		// Drain before joining: with the governor ablated, clients can
		// be parked on the full detached queue while holding their
		// write locks — the wedge this experiment exists to show — and
		// only the drain signal unparks them.
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = sys.Drain(dctx)
		cancel()
		wg.Wait()

		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p99 := time.Duration(0)
		if len(all) > 0 {
			p99 = all[len(all)*99/100]
		}
		sheds := sys.Governor.Sheds()
		label := "governor on"
		if disabled {
			label = "governor off (ablated)"
		}
		row := Row{
			Experiment: "E14-overload",
			Config:     fmt.Sprintf("offered %dx capacity, %d clients, %s", mult, clients, label),
			Ops:        int(attempts.Load()),
		}
		row.Extra = fmt.Sprintf(
			"goodput=%d/s p99=%s committed=%d refused=%d sheds=detached:%d,deferred:%d,writer:%d",
			int64(float64(committed.Load())/elapsed.Seconds()), p99.Round(10*time.Microsecond),
			committed.Load(), refused.Load(), sheds[0], sheds[1], sheds[2])
		return row
	}
	var rows []Row
	for _, disabled := range []bool{false, true} {
		for _, mult := range []int{1, 2, 4} {
			rows = append(rows, run(disabled, mult))
		}
	}
	return rows
}
