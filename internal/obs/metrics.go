// Package obs is the observability layer of the reproduction: a
// dependency-free metrics registry (counters, gauges, log-bucketed
// latency histograms), an event-lifecycle tracer, and an HTTP admin
// surface exposing both.
//
// The paper's empirical claims — sentry overhead classes (§5),
// history-consolidation cost (§6.3), the latency price of each
// coupling mode (Table 1, §6.4) — are only testable against a running
// system if the pipeline can be measured end to end. Every subsystem
// (sentry, engine, transaction manager, storage) registers its
// counters here instead of keeping private atomics, so one snapshot
// is the whole story.
//
// Counters, gauges and histograms are safe for concurrent use and their
// zero values are usable: a subsystem can allocate standalone handles
// with new and later have them replaced by registry-bound ones at
// wiring time. A Batch is a single goroutine's private buffer of
// histogram observations.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v is larger — high-water-mark
// semantics.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two buckets. Bucket i counts
// observations v with 2^i <= v < 2^(i+1) (bucket 0 additionally takes
// v <= 1), in nanoseconds: bucket 0 is ~1ns, bucket 47 ~39 hours.
const histBuckets = 48

// Histogram is a log2-bucketed histogram of durations. Observations
// are lock-free atomic increments; snapshots support quantile
// estimation. There is no count of its own: the count is the sum of
// the buckets, so a snapshot taken beside concurrent observations is
// always a consistent histogram (cumulative buckets never exceed the
// count).
type Histogram struct {
	sum     atomic.Uint64 // total nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 1 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// nanos converts an observation to nanoseconds, clamping negatives.
func nanos(d time.Duration) uint64 {
	return uint64(max(int64(d), 0))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := nanos(d)
	h.sum.Add(ns)
	h.buckets[bucketOf(int64(ns))].Add(1)
}

// Time starts a wall-clock measurement and returns the function that
// stops it and records the elapsed time:
//
//	defer h.Time()()
//
// It exists so instrumented packages never touch the wall clock
// themselves — timing lives here, in the one package the clockusage
// analyzer exempts.
func (h *Histogram) Time() func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot returns a point-in-time copy of the histogram. Its Count is
// the sum of the copied buckets; Sum is read first, so it may lag the
// buckets by the observations that land in between.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Batch gathers observations bound for one Histogram in plain memory
// — a sum and bucket counts, typically on the stack of the goroutine
// that makes them — and publishes them with Flush: one atomic add for
// the sum and one per touched bucket, however many observations the
// batch holds. A burst of observations (the phases of a rule set) then
// costs the shared histogram's cache lines once, not once per
// observation. The zero value is an empty batch; a Batch is not safe
// for concurrent use.
type Batch struct {
	sum     uint64
	touched uint64 // bit i set: counts[i] > 0
	counts  [histBuckets]uint32
}

// Observe adds one duration to the batch.
func (b *Batch) Observe(d time.Duration) {
	ns := nanos(d)
	i := bucketOf(int64(ns))
	b.sum += ns
	b.counts[i]++
	b.touched |= 1 << i
}

// Flush publishes the batch into h and empties it.
func (b *Batch) Flush(h *Histogram) {
	if b.touched == 0 {
		return
	}
	h.sum.Add(b.sum)
	for m := b.touched; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		h.buckets[i].Add(uint64(b.counts[i]))
		b.counts[i] = 0
	}
	b.sum, b.touched = 0, 0
}

// HistogramSnapshot is a consistent-enough copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64 // nanoseconds
	Buckets [histBuckets]uint64
}

// bucketBounds returns the [lo, hi) nanosecond range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 2
	}
	return float64(uint64(1) << uint(i)), float64(uint64(1) << uint(i+1))
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds by
// linear interpolation within the containing bucket. It returns 0 for
// an empty histogram.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(n)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	lo, hi := bucketBounds(histBuckets - 1)
	_ = lo
	return hi
}

// Mean returns the average observation in nanoseconds.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
