package main

import (
	"math"
	"slices"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (bench_test.go holds them
// together) and adds the regression bound of each end-to-end metric.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	doc    string
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload by the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", false, "open + register + load rules + populate + warm-up, median of the run's five set-ups"},
	{"txn_per_s", "1/s", true, "committed application transactions ÷ wall time of a round, incl. DrainComposers + WaitDetached"},
	{"txn_p50_us", "us", false, "writing transaction, first BeginTxn → Commit returned (client retries included), median"},
	{"txn_p99_us", "us", false, "same, 99th percentile"},
	{"read_p50_us", "us", false, "read-only transaction, BeginTxn → Commit returned, median"},
	{"read_p99_us", "us", false, "same, 99th percentile"},
	{"react_p50_us", "us", false, "event raised (stamp in its arguments) → triggered rule's action starts, median over the workload's stamped rules"},
	{"react_p95_us", "us", false, "same, 95th percentile"},
	{"allocs_per_txn", "1/txn", false, "heap allocations (MemStats.Mallocs) per application transaction"},
	{"live_heap_mb", "MiB", false, "HeapAlloc after a forced GC at the end of a round, device bytes excluded"},
	{"wal_bytes_per_txn", "B/txn", false, "bytes written to log files per application transaction"},
	{"fsync_per_txn", "1/txn", false, "device flushes per application transaction"},
	{"space_amp", "ratio", false, "data file + log after a checkpoint ÷ live user bytes"},
	{"recovery_s", "s", false, "oodb.Open on a crash image taken after a fixed number of commits with the checkpointer off"},
}

// perLayer are the traced pass's metrics: spans around calls into the
// layers, counts at the same boundaries, and isolated layer probes.
var perLayer = []metricDef{
	// 1. Self time per transaction of spans recorded by benchmark code.
	{"app.txn_us", "us", false, "whole client transaction; self time is what no child span covers"},
	{"txn.begin_us", "us", false, "System.BeginTxn: admission gate + begin + BOT event"},
	{"oodb.invoke_self_us", "us", false, "DB.Invoke minus sink and method body"},
	{"oodb.access_us", "us", false, "the application's direct Get/Set/New/Persist/Delete/Select calls"},
	{"app.method_us", "us", false, "method bodies (benchmark code the database calls back)"},
	{"eca.emit_self_us", "us", false, "Sink.Emit minus rule bodies: sentry + ECA manager + rule-subtransaction begin/commit/inherit"},
	{"rules.eval_us", "us", false, "Cond/Action of rules compiled by rules.Compile"},
	{"rules.gobody_us", "us", false, "Cond/Action of Go-closure rules"},
	{"txn.commit_self_us", "us", false, "Txn.Commit minus deferred rule bodies and log-device time: EOT drain + oodb flush + storage/WAL encode"},
	{"device.write_us", "us", false, "time inside device writes per transaction"},
	{"device.sync_us", "us", false, "time inside device flushes per transaction"},
	{"eca.react_immediate_us", "us", false, "raise → action start, immediate rule on a primitive event, median"},
	{"eca.react_defer_us", "us", false, "raise → action start, deferred rule, median"},
	{"eca.react_detach_us", "us", false, "raise → action start, detached rule on a primitive event, median"},
	{"eca.react_compose_us", "us", false, "raise → action start, detached rule on a global composite, median"},
	{"trace.overhead_share", "ratio", false, "traced txn_p50_us ÷ untraced txn_p50_us − 1"},
	{"trace.coverage_share", "ratio", true, "share of app.txn_us covered by child spans"},
	// 2. Counts at the same boundaries, from public Stats()/Metrics after
	// the untraced rounds.
	{"fail_share", "ratio", false, "operations failed after the client retry budget ÷ attempted"},
	{"sentry.useful", "1/txn", false, "sentry checks that found a subscriber"},
	{"sentry.useless", "1/txn", false, "sentry checks on monitored classes nobody subscribed to"},
	{"eca.immediate_fired", "1/txn", false, "immediate rule firings"},
	{"eca.deferred_fired", "1/txn", false, "deferred rule firings"},
	{"eca.detached_fired", "1/txn", false, "detached rule firings accepted by the executor"},
	{"eca.composites_detected", "1/txn", false, "composite event completions"},
	{"eca.semi_composed_end", "count", false, "semi-composed occurrences buffered when the rounds end"},
	{"eca.history_bytes_end", "B", false, "event-history bytes when the rounds end"},
	{"eca.gc_expired", "count", false, "semi-composed occurrences dropped by validity expiry or abort"},
	{"eca.deadletters", "count", false, "detached firings in the dead-letter queue"},
	{"txn.lock_waits", "1/txn", false, "lock requests that had to wait"},
	{"txn.lock_wait_us", "us", false, "time blocked on lock grants per transaction"},
	{"txn.deadlock_victims", "1/txn", false, "ErrDeadlock returned to a client"},
	{"txn.client_retries", "1/txn", false, "client retries (deadlock or overload)"},
	{"storage.buffer_hit_share", "ratio", true, "buffer-pool hits ÷ page fixes"},
	{"storage.evictions", "1/txn", false, "buffer-pool evictions"},
	{"storage.wal_bytes", "B/txn", false, "bytes written to log files"},
	{"storage.group_batch_mean", "ratio", true, "commit forces per log fsync"},
	{"storage.checkpoints", "count", false, "fuzzy checkpoints completed"},
	{"storage.wal_segments_end", "count", false, "live log segments when the rounds end"},
	{"storage.recovery_records", "count", false, "log records the recovery phase's reopen scanned"},
	{"device.syncs", "1/txn", false, "device flushes"},
	{"device.writes", "1/txn", false, "device writes"},
	{"device.write_bytes", "B/txn", false, "bytes written to the device"},
	{"governor.sheds", "count", false, "work the overload governor shed (must stay 0)"},
	{"governor.state_changes", "count", false, "governor health-state transitions (must stay 0)"},
	// 3. Isolated layer probes: one goroutine, fixed counts, ns/op,
	// median of five repeats.
	{"probe.sentry.emit_useless_ns", "ns", false, "Dispatcher.Wants on an unsubscribed key"},
	{"probe.sentry.emit_useful_ns", "ns", false, "Wants + Emit of a subscribed event with no rules behind it"},
	{"probe.txn.begin_commit_ns", "ns", false, "empty top-level transaction"},
	{"probe.txn.child_commit_inherit_ns", "ns", false, "subtransaction: begin, one X lock, commit with inheritance"},
	{"probe.txn.lock_s_ns", "ns", false, "uncontended S lock (first request on a resource)"},
	{"probe.txn.lock_x_ns", "ns", false, "uncontended X lock"},
	{"probe.txn.lock_handoff_ns", "ns", false, "two goroutines ping-pong one X lock: release → blocked waiter runs"},
	{"probe.oodb.get_ns", "ns", false, "DB.Get of an int attribute, lock already held"},
	{"probe.oodb.set_ns", "ns", false, "DB.Set of an int attribute on an unmonitored class, lock already held"},
	{"probe.oodb.invoke_unmonitored_ns", "ns", false, "DB.Invoke of an empty method on an unmonitored class"},
	{"probe.algebra.seq_chronicle_feed_ns", "ns", false, "Composer.Feed, seq(a;b) chronicle, alternating a and b"},
	{"probe.algebra.seq_recent_feed_ns", "ns", false, "Composer.Feed, seq(a;b) recent"},
	{"probe.algebra.conj_feed_ns", "ns", false, "Composer.Feed, and(a,b) chronicle"},
	{"probe.algebra.neg_feed_ns", "ns", false, "Composer.Feed, seq(a;not c;b) chronicle"},
	{"probe.algebra.history_feed_ns", "ns", false, "Composer.Feed, times(4,a)"},
	{"probe.rules.cond_eval_ns", "ns", false, "compiled condition x < 37 and river.level >= 0"},
	{"probe.eca.detached_spawn_ns", "ns", false, "one detached firing: spawn → no-op action → rule transaction committed"},
	{"probe.storage.wal_append_ns", "ns", false, "WAL.Append of a 512-byte update record"},
	{"probe.storage.wal_sync_ns", "ns", false, "WAL.Append + SyncTo on the in-memory device"},
	{"probe.storage.insert_commit_ns", "ns", false, "Store Begin + Insert(512 B) + Commit"},
	{"probe.storage.update_hit_ns", "ns", false, "Store Begin + Update(512 B) + Commit, page resident"},
	{"probe.storage.update_miss_ns", "ns", false, "same, page not resident"},
	{"probe.query.select_indexed_ns", "ns", false, "Select with an equality predicate on an indexed attribute, 256 objects"},
	{"probe.query.select_scan_ns", "ns", false, "the same Select without the index"},
	{"probe.governor.admit_ns", "ns", false, "Governor.AdmitTxn while healthy"},
	{"probe.governor.should_shed_ns", "ns", false, "Governor.ShouldShed while healthy"},
	{"budget.plant-rules.residual_share", "ratio", false, "1 − Σ(boundary count × probe cost) ÷ single-client txn_p50_us; 0 on other workloads"},
	{"budget.plant-durable.residual_share", "ratio", false, "same for plant-durable"},
}

// quantiles returns the given quantiles of samples (nearest rank) in
// nanoseconds as recorded; 0 for each when there are no samples.
func quantiles(samples []int32, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for k, q := range qs {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		out[k] = float64(sorted[min(max(i, 0), len(sorted)-1)])
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
