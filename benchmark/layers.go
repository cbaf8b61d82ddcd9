package main

import (
	"fmt"

	"repro/internal/eca"
	"repro/internal/storage"
)

// layerCounts is a snapshot of the counters the program exposes through
// its public Stats() and metrics registry, plus the device's.
type layerCounts struct {
	useful, useless       uint64
	engine                eca.Stats
	lockWaits, lockWaitNS uint64
	store                 storage.Stats
	evictions             uint64
	dev                   deviceCounts
}

func snapshotCounts(p *plant) layerCounts {
	reg := p.sys.Metrics
	var lc layerCounts
	lc.useful, lc.useless, _ = p.sys.Engine.Dispatcher().Stats()
	lc.engine = p.sys.Engine.Stats()
	for _, mode := range []string{"S", "X"} {
		h := reg.Histogram("reach_lock_wait_seconds", "", "mode", mode).Snapshot()
		lc.lockWaits += h.Count
		lc.lockWaitNS += h.Sum
	}
	lc.store = p.sys.DB.StorageStats()
	lc.evictions = reg.Counter("reach_buffer_evictions_total", "").Value()
	lc.dev = p.dev.counts()
	return lc
}

// countMetrics turns the change between two snapshots, taken around the
// untraced rounds, into the per-layer count metrics.
func countMetrics(p *plant, a, b layerCounts, txns float64, retries, victims int64, m map[string]float64) {
	per := func(after, before uint64) float64 { return float64(after-before) / txns }
	m["sentry.useful"] = per(b.useful, a.useful)
	m["sentry.useless"] = per(b.useless, a.useless)
	m["eca.immediate_fired"] = per(b.engine.ImmediateFired, a.engine.ImmediateFired)
	m["eca.deferred_fired"] = per(b.engine.DeferredFired, a.engine.DeferredFired)
	m["eca.detached_fired"] = per(b.engine.DetachedFired, a.engine.DetachedFired)
	m["eca.composites_detected"] = per(b.engine.CompositesDetected, a.engine.CompositesDetected)
	m["eca.gc_expired"] = float64(b.engine.SemiComposedGCed - a.engine.SemiComposedGCed)
	m["eca.semi_composed_end"] = float64(p.sys.Engine.SemiComposed())
	m["eca.history_bytes_end"] = float64(p.sys.Engine.HistoryBytes())
	m["eca.deadletters"] = float64(len(p.sys.Engine.DeadLetters()))
	m["txn.lock_waits"] = per(b.lockWaits, a.lockWaits)
	m["txn.lock_wait_us"] = per(b.lockWaitNS, a.lockWaitNS) / 1e3
	m["txn.deadlock_victims"] = float64(victims) / txns
	m["txn.client_retries"] = float64(retries) / txns
	hits, miss := b.store.BufferHits-a.store.BufferHits, b.store.BufferMiss-a.store.BufferMiss
	if hits+miss > 0 {
		m["storage.buffer_hit_share"] = float64(hits) / float64(hits+miss)
	}
	m["storage.evictions"] = per(b.evictions, a.evictions)
	m["storage.wal_bytes"] = float64(b.dev.walBytes-a.dev.walBytes) / txns
	if syncs := b.store.WALSyncs - a.store.WALSyncs; syncs > 0 {
		m["storage.group_batch_mean"] = float64(b.store.GroupCommitRequests-a.store.GroupCommitRequests) / float64(syncs)
	}
	m["storage.checkpoints"] = float64(b.store.Checkpoints - a.store.Checkpoints)
	m["storage.wal_segments_end"] = float64(b.store.WALSegments)
	d := b.dev.sub(a.dev)
	m["device.syncs"] = float64(d.syncs) / txns
	m["device.writes"] = float64(d.writes) / txns
	m["device.write_bytes"] = float64(d.writeBytes) / txns
	m["governor.sheds"] = float64(totalSheds(p.sys.Governor))
	var changes uint64
	for _, n := range p.sys.Governor.Snapshot().Transitions {
		changes += n
	}
	m["governor.state_changes"] = float64(changes)
}

// runPerLayer is the traced pass. On one set-up it runs untraced rounds
// (counts, reaction paths, the untraced p50), then traced rounds (span
// self times, device time), then a single-client round for the latency
// budget; a recovery phase on a second set-up gives the recovery record
// count; the isolated probes run last.
func runPerLayer(name string, newW func() workload, cfg config, traceOut string, t *tally) *passResult {
	res := newPassResult(name, true)
	m := res.Metrics
	for _, def := range perLayer {
		m[def.name] = 0
	}
	b := newBench(newW, cfg, t)
	dev := b.dev
	err := func() error {
		p, _, err := b.setUp(0, false)
		if err != nil {
			return err
		}
		defer p.close()

		// Untraced rounds: 40 % of the pass's time.
		before := snapshotCounts(p)
		var p50s []float64
		var react [numPaths][]int32
		var txns, failed, retries, victims int64
		rounds, err := timedRounds(p, 0.4*cfg.seconds, func(r *roundResult) error {
			txns += int64(r.ops - r.failed)
			failed += int64(r.failed)
			retries += r.retries
			victims += r.victims
			p50s = append(p50s, quantiles(r.lat[kindWrite], 0.5)[0])
			for path := range react {
				react[path] = append(react[path], r.react[path]...)
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.Rounds = rounds
		if txns == 0 {
			return fmt.Errorf("no operation acknowledged")
		}
		countMetrics(p, before, snapshotCounts(p), float64(txns), retries, victims, m)
		m["fail_share"] = float64(failed) / float64(txns+failed)
		for path, key := range [numPaths]string{"eca.react_immediate_us", "eca.react_defer_us", "eca.react_detach_us", "eca.react_compose_us"} {
			m[key] = quantiles(react[path], 0.5)[0] / 1e3
			res.Samples[key] = len(react[path])
		}
		untracedP50 := median(p50s)

		// Traced rounds: spans from the benchmark's own code around each
		// call into a layer, the timing sink in front of the sentry
		// dispatcher, and timed device calls.
		var tracers []*tracer
		for _, c := range p.clients {
			c.tr = newTracer(c.id)
			tracers = append(tracers, c.tr)
		}
		p.sys.DB.SetSink(timingSink{inner: p.sys.Engine.Dispatcher()})
		tracingOn.Store(true)
		dev.timed.Store(true)
		dev0 := dev.counts()
		p50s = p50s[:0]
		var tracedTxns int64
		_, err = timedRounds(p, 0.4*cfg.seconds, func(r *roundResult) error {
			tracedTxns += int64(r.ops - r.failed)
			p50s = append(p50s, quantiles(r.lat[kindWrite], 0.5)[0])
			return nil
		})
		dev.timed.Store(false)
		tracingOn.Store(false)
		p.sys.DB.SetSink(p.sys.Engine.Dispatcher())
		for _, c := range p.clients {
			c.tr = nil
		}
		if err != nil {
			return err
		}
		spanMetrics(tracers, dev.counts().sub(dev0), float64(tracedTxns), m)
		m["trace.overhead_share"] = median(p50s)/untracedP50 - 1
		if traceOut != "" {
			if err := writeSpans(traceOut, tracers); err != nil {
				return err
			}
		}
		if err := p.w.verify(p); err != nil {
			return err
		}
		if err := healthCheck(p); err != nil {
			return err
		}

		// Latency budget: what one client alone pays per transaction,
		// against the sum of boundary counts × isolated probe costs.
		r := p.roundOf(p.opsPerRound(), 1)
		soloP50 := quantiles(r.lat[kindWrite], 0.5)[0]

		p2, _, err := b.setUp(1, true)
		if err != nil {
			return err
		}
		_, records, err := recoveryPhase(p2)
		if cerr := p2.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("recovery phase: %w", err)
		}
		m["storage.recovery_records"] = float64(records)

		if err := runProbes(cfg.scale, m); err != nil {
			return err
		}
		if bw, ok := p.w.(budgeted); ok {
			m["budget."+name+".residual_share"] = 1 - bw.budgetNS(m)/soloP50
		}
		return nil
	}()
	return res.finish(t, err)
}

// budgeted is implemented by the workloads that have a latency budget:
// budgetNS sums boundary counts × probe costs for one writing
// transaction, from the per-layer metrics already gathered.
type budgeted interface {
	budgetNS(m map[string]float64) float64
}

// spanMetrics reports each span kind's self time per transaction.
func spanMetrics(tracers []*tracer, dev deviceCounts, txns float64, m map[string]float64) {
	var self, total [numSpans]int64
	for _, tr := range tracers {
		for k := range self {
			self[k] += tr.self[k]
			total[k] += tr.total[k]
		}
	}
	us := func(ns int64) float64 { return float64(ns) / txns / 1e3 }
	m["app.txn_us"] = us(self[spanTxn])
	m["txn.begin_us"] = us(self[spanBegin])
	m["oodb.invoke_self_us"] = us(self[spanInvoke])
	m["oodb.access_us"] = us(self[spanAccess])
	m["app.method_us"] = us(self[spanMethod])
	m["eca.emit_self_us"] = us(self[spanEmit])
	m["rules.eval_us"] = us(self[spanEval])
	m["rules.gobody_us"] = us(self[spanGoBody])
	m["device.write_us"] = us(dev.writeNS)
	m["device.sync_us"] = us(dev.syncNS)
	// Device time is not a span (a group-commit leader or the checkpointer
	// may be the caller), so the log's share is taken off the commit span
	// in aggregate.
	m["txn.commit_self_us"] = us(self[spanCommit] - dev.walWriteNS - dev.syncNS)
	if total[spanTxn] > 0 {
		m["trace.coverage_share"] = 1 - float64(self[spanTxn])/float64(total[spanTxn])
	}
}
