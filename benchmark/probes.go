package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/oodb"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/sentry"
	"repro/internal/storage"
	"repro/internal/txn"
)

// A probe drives one package's public API directly from one goroutine
// for a fixed count and returns ns per operation; runProbes reports the
// median of five repeats. Probes are what the latency budget multiplies
// boundary counts by, and what a layer optimisation should move first.

const probeRepeats = 5

// probeFunc runs n operations and returns the time they took. Set-up
// happens before the returned duration starts.
type probeFunc func(n int) (time.Duration, error)

type probe struct {
	name string
	n    int // operations per repeat at scale 1
	run  probeFunc
}

// timeLoop times n calls of op.
func timeLoop(n int, op func(i int) error) (time.Duration, error) {
	start := nowNS()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return since(start), nil
}

func runProbes(scale float64, into map[string]float64) error {
	for _, pr := range probes {
		n := max(int(float64(pr.n)*scale), 8)
		var ns []float64
		for r := 0; r < probeRepeats; r++ {
			d, err := pr.run(n)
			if err != nil {
				return fmt.Errorf("%s: %w", pr.name, err)
			}
			ns = append(ns, float64(d)/float64(n))
		}
		into[pr.name] = median(ns)
	}
	return nil
}

var probes = []probe{
	{"probe.sentry.emit_useless_ns", 200000, func(n int) (time.Duration, error) {
		d := sentry.New(sentry.ConsumerFunc(func(*event.Instance) error { return nil }))
		d.Subscribe("method:Other.m:after")
		return timeLoop(n, func(int) error { d.Wants("method:River.m:after"); return nil })
	}},
	{"probe.sentry.emit_useful_ns", 200000, func(n int) (time.Duration, error) {
		d := sentry.New(sentry.ConsumerFunc(func(*event.Instance) error { return nil }))
		const key = "method:River.m:after"
		d.Subscribe(key)
		return timeLoop(n, func(int) error {
			if !d.Wants(key) {
				return fmt.Errorf("subscribed key not wanted")
			}
			in := event.Get()
			in.SpecKey = key
			err := d.Emit(in)
			event.Recycle(in)
			return err
		})
	}},
	{"probe.txn.begin_commit_ns", 100000, func(n int) (time.Duration, error) {
		m := txn.NewManager()
		return timeLoop(n, func(int) error { return m.Begin().Commit() })
	}},
	{"probe.txn.child_commit_inherit_ns", 100000, func(n int) (time.Duration, error) {
		m := txn.NewManager()
		top := m.Begin()
		d, err := timeLoop(n, func(i int) error {
			if i%64 == 0 { // a fresh parent now and then, as transactions are short
				if err := top.Commit(); err != nil {
					return err
				}
				top = m.Begin()
			}
			c, err := top.BeginChild()
			if err != nil {
				return err
			}
			if err := c.Lock(7, txn.LockExclusive); err != nil {
				return err
			}
			return c.Commit()
		})
		return d, err
	}},
	{"probe.txn.lock_s_ns", 100000, lockProbe(txn.LockShared)},
	{"probe.txn.lock_x_ns", 100000, lockProbe(txn.LockExclusive)},
	{"probe.txn.lock_handoff_ns", 20000, func(n int) (time.Duration, error) {
		// Two goroutines take turns on one X lock: each acquisition
		// waits for the other's commit to release and wake it.
		m := txn.NewManager()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		start := nowNS()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < n/2; i++ {
					t := m.Begin()
					if err := t.Lock(1, txn.LockExclusive); err != nil {
						errs[g] = err
						_ = t.Abort() // the lock error is what is reported
						return
					}
					if err := t.Commit(); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return since(start), firstErr(errs...)
	}},
	{"probe.oodb.get_ns", 200000, func(n int) (time.Duration, error) {
		db, obj, err := probeDB(false)
		if err != nil {
			return 0, err
		}
		t := db.Begin()
		defer t.Abort()
		return timeLoop(n, func(int) error { _, err := db.Get(t, obj, "val"); return err })
	}},
	{"probe.oodb.set_ns", 200000, func(n int) (time.Duration, error) {
		db, obj, err := probeDB(false)
		if err != nil {
			return 0, err
		}
		// A fresh transaction every 1024 writes keeps its undo log short;
		// beginning and aborting it is not timed.
		return inChunks(n, func(count int) (time.Duration, error) {
			t := db.Begin()
			defer t.Abort()
			return timeLoop(count, func(i int) error { return db.Set(t, obj, "val", int64(i)) })
		})
	}},
	{"probe.oodb.invoke_unmonitored_ns", 200000, func(n int) (time.Duration, error) {
		db, obj, err := probeDB(false)
		if err != nil {
			return 0, err
		}
		t := db.Begin()
		defer t.Abort()
		return timeLoop(n, func(int) error { _, err := db.Invoke(t, obj, "nop"); return err })
	}},
	{"probe.algebra.seq_chronicle_feed_ns", 100000, feedProbe(algebra.Chronicle,
		algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: "a"}, algebra.Prim{Key: "b"}}}, "a", "b")},
	{"probe.algebra.seq_recent_feed_ns", 100000, feedProbe(algebra.Recent,
		algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: "a"}, algebra.Prim{Key: "b"}}}, "a", "b")},
	{"probe.algebra.conj_feed_ns", 100000, feedProbe(algebra.Chronicle,
		algebra.Conj{Exprs: []algebra.Expr{algebra.Prim{Key: "a"}, algebra.Prim{Key: "b"}}}, "a", "b")},
	{"probe.algebra.neg_feed_ns", 100000, feedProbe(algebra.Chronicle,
		algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: "a"}, algebra.Neg{Of: algebra.Prim{Key: "c"}}, algebra.Prim{Key: "b"}}}, "a", "b")},
	{"probe.algebra.history_feed_ns", 100000, feedProbe(algebra.Chronicle,
		algebra.History{Of: algebra.Prim{Key: "a"}, Count: 4}, "a")},
	{"probe.rules.cond_eval_ns", 100000, func(n int) (time.Duration, error) {
		db, obj, err := probeDB(false)
		if err != nil {
			return 0, err
		}
		engine := eca.New(db, eca.Options{})
		defer engine.Close()
		decls, err := rules.Parse(`rule P { decl Probe *p, int x; event after p->nop(x);
			cond imm x < 37 and p.val >= 0; action imm p->nop(); };`)
		if err != nil {
			return 0, err
		}
		r, _, _, err := rules.Compile(engine, decls[0])
		if err != nil {
			return 0, err
		}
		t := db.Begin()
		defer t.Abort()
		rc := &eca.RuleCtx{Engine: engine, DB: db, Txn: t, Trigger: &event.Instance{
			SpecKey: r.EventKey, OID: uint64(obj.OID()), Args: []any{int64(5)}}}
		return timeLoop(n, func(int) error {
			ok, err := r.Cond(rc)
			if err == nil && !ok {
				err = fmt.Errorf("condition evaluated to false")
			}
			return err
		})
	}},
	{"probe.eca.detached_spawn_ns", 10000, func(n int) (time.Duration, error) {
		db, obj, err := probeDB(true)
		if err != nil {
			return 0, err
		}
		engine := eca.New(db, eca.Options{})
		defer engine.Close()
		err = engine.AddRule(&eca.Rule{Name: "D", ActionMode: eca.Detached,
			EventKey: event.MethodSpec{Class: "Probe", Method: "nop", When: event.After}.Key(),
			Action:   func(*eca.RuleCtx) error { return nil }})
		if err != nil {
			return 0, err
		}
		t := db.Begin()
		defer t.Abort()
		return timeLoop(n, func(int) error {
			_, err := db.Invoke(t, obj, "nop")
			engine.WaitDetached()
			return err
		})
	}},
	{"probe.storage.wal_append_ns", 50000, func(n int) (time.Duration, error) {
		return walProbe(n, false)
	}},
	{"probe.storage.wal_sync_ns", 50000, func(n int) (time.Duration, error) {
		return walProbe(n, true)
	}},
	{"probe.storage.insert_commit_ns", 20000, func(n int) (time.Duration, error) {
		st, err := storage.Open("probe", storage.Options{FS: newMemFS()})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		rec := make([]byte, durablePayloadBytes)
		return timeLoop(n, func(i int) error {
			id := uint64(i + 1)
			if err := st.Begin(id); err != nil {
				return err
			}
			if _, err := st.Insert(id, rec); err != nil {
				return err
			}
			return st.Commit(id)
		})
	}},
	{"probe.storage.update_hit_ns", 20000, func(n int) (time.Duration, error) {
		return updateProbe(n, 8) // 8 records: one page, always resident
	}},
	{"probe.storage.update_miss_ns", 20000, func(n int) (time.Duration, error) {
		return updateProbe(n, 8192) // 8192 × 512 B = 4 MiB against a 16-page pool
	}},
	{"probe.query.select_indexed_ns", 20000, selectProbe(true)},
	{"probe.query.select_scan_ns", 500, selectProbe(false)},
	{"probe.governor.admit_ns", 200000, func(n int) (time.Duration, error) {
		g := governor.New(governor.Options{})
		return timeLoop(n, func(int) error { return g.AdmitTxn() })
	}},
	{"probe.governor.should_shed_ns", 200000, func(n int) (time.Duration, error) {
		g := governor.New(governor.Options{})
		return timeLoop(n, func(int) error {
			if g.ShouldShed(governor.ClassDetached) {
				return fmt.Errorf("healthy governor sheds")
			}
			return nil
		})
	}},
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inChunks runs n operations as chunks of at most 1024 and sums the time
// the chunks report, so per-chunk set-up and tear-down stay untimed.
func inChunks(n int, chunk func(count int) (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	for done := 0; done < n; done += 1024 {
		d, err := chunk(min(1024, n-done))
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// probeDB is an in-memory database with one Probe object.
func probeDB(monitored bool) (*oodb.DB, *oodb.Object, error) {
	db, err := oodb.Open(oodb.Options{})
	if err != nil {
		return nil, nil, err
	}
	cl := oodb.NewClass("Probe", oodb.Attr{Name: "val", Type: oodb.TInt})
	cl.Monitored = monitored
	cl.Method("nop", func(*oodb.Ctx, *oodb.Object, []any) (any, error) { return nil, nil })
	if err := db.Dictionary().Register(cl); err != nil {
		return nil, nil, err
	}
	t := db.Begin()
	obj, err := db.NewObject(t, "Probe")
	if err != nil {
		return nil, nil, err
	}
	return db, obj, t.Commit()
}

// lockProbe times first requests on distinct resources; the commits
// that release them in batches are not timed.
func lockProbe(mode txn.LockMode) probeFunc {
	return func(n int) (time.Duration, error) {
		m := txn.NewManager()
		return inChunks(n, func(count int) (time.Duration, error) {
			t := m.Begin()
			d, err := timeLoop(count, func(i int) error { return t.Lock(uint64(i+1), mode) })
			if cerr := t.Commit(); err == nil {
				err = cerr
			}
			return d, err
		})
	}
}

// feedProbe feeds a composer the given keys round-robin.
func feedProbe(policy algebra.Policy, expr algebra.Expr, keys ...string) probeFunc {
	return func(n int) (time.Duration, error) {
		cp, err := algebra.NewComposer(&algebra.Composite{Name: "p", Expr: expr, Policy: policy,
			Scope: algebra.ScopeTransaction})
		if err != nil {
			return 0, err
		}
		ins := make([]*event.Instance, n)
		for i := range ins {
			ins[i] = &event.Instance{SpecKey: keys[i%len(keys)], Kind: event.KindMethod,
				Seq: uint64(i + 1), Txn: 1, Time: clockBase}
		}
		return timeLoop(n, func(i int) error { cp.Feed(ins[i]); return nil })
	}
}

func walProbe(n int, sync bool) (time.Duration, error) {
	wal, err := storage.OpenWALSegmented(newMemFS(), "probe/wal.log", 0)
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	rec := &storage.LogRecord{Txn: 1, Kind: storage.LogUpdate, RID: storage.RID{Page: 1, Slot: 1},
		Before: make([]byte, durablePayloadBytes), After: make([]byte, durablePayloadBytes)}
	return timeLoop(n, func(int) error {
		lsn, err := wal.Append(rec)
		if err == nil && sync {
			err = wal.SyncTo(lsn)
		}
		return err
	})
}

// updateProbe updates one of records 512-byte records per transaction,
// striding so that with many records every update lands on a page the
// small pool has evicted.
func updateProbe(n, records int) (time.Duration, error) {
	st, err := storage.Open("probe", storage.Options{FS: newMemFS(), BufferPoolPages: 16})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	rec := make([]byte, durablePayloadBytes)
	rids := make([]storage.RID, records)
	for done := 0; done < records; done += 256 {
		id := uint64(done + 1)
		if err := st.Begin(id); err != nil {
			return 0, err
		}
		for i := done; i < min(done+256, records); i++ {
			if rids[i], err = st.Insert(id, rec); err != nil {
				return 0, err
			}
		}
		if err := st.Commit(id); err != nil {
			return 0, err
		}
	}
	const stride = 257 // coprime with the record counts used
	return timeLoop(n, func(i int) error {
		id := uint64(records + i + 1)
		if err := st.Begin(id); err != nil {
			return err
		}
		k := i * stride % records
		rid, err := st.Update(id, rids[k], rec)
		if err != nil {
			return err
		}
		rids[k] = rid
		return st.Commit(id)
	})
}

// selectProbe times an equality Select over 256 objects, with or without
// a hash index on the attribute.
func selectProbe(indexed bool) probeFunc {
	return func(n int) (time.Duration, error) {
		db, _, err := probeDB(true)
		if err != nil {
			return 0, err
		}
		engine := eca.New(db, eca.Options{})
		defer engine.Close()
		q := query.New(db, engine)
		t := db.Begin()
		for i := 0; i < 255; i++ {
			obj, err := db.NewObject(t, "Probe")
			if err == nil {
				err = db.Set(t, obj, "val", int64(i+1))
			}
			if err != nil {
				return 0, err
			}
		}
		if err := t.Commit(); err != nil {
			return 0, err
		}
		if indexed {
			if _, err := q.CreateIndex("Probe", "val"); err != nil {
				return 0, err
			}
		}
		t = db.Begin()
		defer t.Abort()
		return timeLoop(n, func(i int) error {
			found, err := q.Select(t, "Probe", query.Pred{Attr: "val", Op: query.Eq, Value: int64(i%255 + 1)})
			if err == nil && len(found) != 1 {
				err = fmt.Errorf("Select found %d objects, want 1", len(found))
			}
			return err
		})
	}
}
