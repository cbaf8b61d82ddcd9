package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter // zero value usable
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want high-water 5", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d, want -7", g.Value())
	}
	g.Add(2)
	if g.Value() != -5 {
		t.Fatalf("gauge = %d, want -5", g.Value())
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1 << 40, 40}, {1 << 62, 47},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.ns); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

// TestHistogramQuantileAccuracy checks the log-bucketed estimator
// against a uniform distribution: an estimate must land within the
// power-of-two bucket containing the true quantile, i.e. within a
// factor of two.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	const n = 1 << 16
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i))
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	for _, tc := range []struct {
		q    float64
		true float64
	}{{0.50, n / 2}, {0.90, 0.9 * n}, {0.99, 0.99 * n}} {
		got := s.Quantile(tc.q)
		if got < tc.true/2 || got > tc.true*2 {
			t.Errorf("q%.0f = %.0f, want within factor 2 of %.0f", tc.q*100, got, tc.true)
		}
	}
	if mean := s.Mean(); mean < float64(n)/2-1 || mean > float64(n)/2+1 {
		t.Errorf("mean = %f, want ~%d", mean, n/2)
	}
}

func TestHistogramConstantValue(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1000 * time.Nanosecond) // bucket 9: [512, 1024)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := s.Quantile(q)
		if got < 512 || got > 1024 {
			t.Errorf("quantile(%g) = %f, want within bucket [512,1024]", q, got)
		}
	}
	if got := s.Mean(); got != 1000 {
		t.Errorf("mean = %f, want 1000", got)
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	var h Histogram
	empty := h.Snapshot()
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %f", got)
	}
	h.Observe(-5) // clamped to 0
	if s := h.Snapshot(); s.Buckets[0] != 1 || s.Sum != 0 {
		t.Fatalf("negative observation: buckets[0]=%d sum=%d", s.Buckets[0], s.Sum)
	}
}

// TestConcurrentMetrics hammers a counter, gauge and histogram from
// many goroutines; exactness of the totals (and the race detector)
// is the assertion.
func TestConcurrentMetrics(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(time.Duration(i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per-1 {
		t.Fatalf("gauge high-water = %d, want %d", g.Value(), workers*per-1)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestBatchFlushMatchesObserve: a batch published with Flush leaves the
// histogram exactly as observing each duration would, and is empty
// afterwards.
func TestBatchFlushMatchesObserve(t *testing.T) {
	durs := []time.Duration{-5, 0, 1, 3, 3, 900, 1000, 1 << 20, time.Hour}
	var direct, batched Histogram
	var b Batch
	b.Flush(&batched) // an empty batch publishes nothing
	for _, d := range durs {
		direct.Observe(d)
		b.Observe(d)
	}
	if n := batched.Count(); n != 0 {
		t.Fatalf("histogram moved before Flush: count %d", n)
	}
	b.Flush(&batched)
	if got, want := batched.Snapshot(), direct.Snapshot(); got != want {
		t.Fatalf("batched snapshot\n%+v\nwant\n%+v", got, want)
	}
	b.Flush(&batched) // emptied by the first Flush
	if got := batched.Count(); got != uint64(len(durs)) {
		t.Fatalf("count after a second Flush = %d, want %d", got, len(durs))
	}
}

// TestHistogramExpositionConsistentUnderWrites reads a histogram through
// Snapshot and the Prometheus exposition while other goroutines observe
// into it one at a time and in batches: every read must be a histogram,
// its cumulative buckets non-decreasing and never above +Inf, with +Inf
// = _count = the sum of the buckets.
func TestHistogramExpositionConsistentUnderWrites(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hammer_seconds", "")
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var b Batch
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := time.Duration(1) << (i % 40)
				if w%2 == 0 {
					h.Observe(d)
					continue
				}
				b.Observe(d)
				if i%5 == 4 {
					b.Flush(h)
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		writers.Wait()
	}()

	var buf bytes.Buffer
	for r := 0; r < 400; r++ {
		s := h.Snapshot()
		var sum uint64
		for _, n := range s.Buckets {
			sum += n
		}
		if s.Count != sum {
			t.Fatalf("read %d: snapshot count %d, buckets sum to %d", r, s.Count, sum)
		}
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var last, inf, count uint64
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, val, _ := strings.Cut(line, " ")
			v, err := strconv.ParseUint(val, 10, 64)
			switch {
			case strings.HasPrefix(name, "hammer_seconds_sum"):
				continue
			case err != nil:
				t.Fatalf("read %d: %q: %v", r, line, err)
			case name == `hammer_seconds_bucket{le="+Inf"}`:
				inf = v
			case strings.HasPrefix(name, "hammer_seconds_bucket"):
				if v < last {
					t.Fatalf("read %d: cumulative bucket %s = %d below the one before it, %d", r, name, v, last)
				}
				last = v
			case name == "hammer_seconds_count":
				count = v
			}
		}
		if last != inf || inf != count {
			t.Fatalf("read %d: last finite bucket %d, +Inf %d, _count %d: want all equal", r, last, inf, count)
		}
	}
}
