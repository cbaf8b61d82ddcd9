package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

var slowBase = time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC)

// span is shorthand for a span starting at base+at lasting dur.
func span(tr *Tracer, id uint64, stage string, at, dur time.Duration) {
	tr.Span(id, stage, "k", slowBase.Add(at), dur)
}

func TestSlowLogPromotion(t *testing.T) {
	tr := NewTracer(8)
	sl := NewSlowLog(4, 10*time.Millisecond)
	tr.SetSlowLog(sl)

	fast := tr.Begin("fast", slowBase)
	span(tr, fast, "detect", 0, time.Millisecond)
	if sl.Len() != 0 {
		t.Fatalf("fast trace promoted: len=%d", sl.Len())
	}

	slow := tr.Begin("slow", slowBase)
	span(tr, slow, "detect", 0, time.Millisecond)
	span(tr, slow, "action-exec", time.Millisecond, 20*time.Millisecond)
	if sl.Len() != 1 {
		t.Fatalf("slow trace not promoted: len=%d", sl.Len())
	}
	entries := sl.Snapshot()
	e := entries[0]
	if e.Trace.ID != slow {
		t.Fatalf("promoted trace ID = %d, want %d", e.Trace.ID, slow)
	}
	if e.TotalNS != int64(21*time.Millisecond) {
		t.Fatalf("TotalNS = %d, want %d", e.TotalNS, 21*time.Millisecond)
	}
	if e.AttributedNS["action-exec"] != int64(20*time.Millisecond) {
		t.Fatalf("AttributedNS = %v", e.AttributedNS)
	}
	if e.CoveredNS != int64(21*time.Millisecond) {
		t.Fatalf("CoveredNS = %d", e.CoveredNS)
	}
}

func TestSlowLogInPlaceUpdate(t *testing.T) {
	tr := NewTracer(8)
	sl := NewSlowLog(4, 10*time.Millisecond)
	tr.SetSlowLog(sl)

	id := tr.Begin("slow", slowBase)
	span(tr, id, "condition-eval", 0, 15*time.Millisecond)
	span(tr, id, "action-exec", 15*time.Millisecond, 5*time.Millisecond)
	if sl.Len() != 1 {
		t.Fatalf("len = %d, want 1 (update in place)", sl.Len())
	}
	e := sl.Snapshot()[0]
	if len(e.Trace.Spans) != 2 {
		t.Fatalf("entry has %d spans, want the updated 2", len(e.Trace.Spans))
	}
	if e.TotalNS != int64(20*time.Millisecond) {
		t.Fatalf("TotalNS = %d after update", e.TotalNS)
	}
	if got := sl.promotions.Value(); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
}

func TestSlowLogFIFOEviction(t *testing.T) {
	tr := NewTracer(64)
	sl := NewSlowLog(3, time.Millisecond)
	tr.SetSlowLog(sl)

	ids := make([]uint64, 5)
	for i := range ids {
		ids[i] = tr.Begin(fmt.Sprintf("t%d", i), slowBase)
		span(tr, ids[i], "action-exec", 0, 5*time.Millisecond)
	}
	if sl.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", sl.Len())
	}
	got := sl.Snapshot()
	// Newest first: ids[4], ids[3], ids[2]; ids[0] and ids[1] evicted.
	for i, want := range []uint64{ids[4], ids[3], ids[2]} {
		if got[i].Trace.ID != want {
			t.Fatalf("entry %d = trace %d, want %d", i, got[i].Trace.ID, want)
		}
	}
	if sl.evictions.Value() != 2 {
		t.Fatalf("evictions = %d, want 2", sl.evictions.Value())
	}
	// Evicted traces can be re-promoted (index consistency after shift).
	span(tr, ids[2], "commit", 5*time.Millisecond, 5*time.Millisecond)
	if sl.Len() != 3 {
		t.Fatalf("len = %d after in-place update of survivor", sl.Len())
	}
}

func TestSlowLogDisabledThreshold(t *testing.T) {
	tr := NewTracer(8)
	sl := NewSlowLog(4, 0)
	tr.SetSlowLog(sl)
	id := tr.Begin("t", slowBase)
	span(tr, id, "action-exec", 0, time.Hour)
	if sl.Len() != 0 {
		t.Fatal("threshold 0 must disable promotion")
	}
	sl.SetThreshold(time.Second)
	span(tr, id, "commit", time.Hour, time.Millisecond)
	if sl.Len() != 1 {
		t.Fatal("promotion after enabling threshold")
	}
}

func TestSlowLogClear(t *testing.T) {
	tr := NewTracer(8)
	sl := NewSlowLog(4, time.Millisecond)
	tr.SetSlowLog(sl)
	id := tr.Begin("t", slowBase)
	span(tr, id, "action-exec", 0, time.Second)
	if n := sl.Clear(); n != 1 {
		t.Fatalf("Clear = %d, want 1", n)
	}
	if sl.Len() != 0 {
		t.Fatal("log not empty after Clear")
	}
	// The same trace promotes again after a clear.
	span(tr, id, "commit", time.Second, time.Millisecond)
	if sl.Len() != 1 {
		t.Fatal("no re-promotion after Clear")
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	tr := NewTracer(32)
	sl := NewSlowLog(16, time.Millisecond)
	sl.Instrument(NewRegistry())
	tr.SetSlowLog(sl)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.Begin("t", slowBase)
				span(tr, id, "detect", 0, time.Millisecond)
				span(tr, id, "action-exec", time.Millisecond, 10*time.Millisecond)
				if i%17 == 0 {
					sl.Snapshot()
				}
				if i%31 == 0 {
					sl.Clear()
				}
			}
		}(g)
	}
	wg.Wait()
	if sl.Len() > 16 {
		t.Fatalf("len = %d exceeds capacity", sl.Len())
	}
	for _, e := range sl.Snapshot() {
		if e.TotalNS < int64(time.Millisecond) {
			t.Fatalf("promoted entry below threshold: %d", e.TotalNS)
		}
	}
}

func TestSlowLogHandler(t *testing.T) {
	tr := NewTracer(8)
	sl := NewSlowLog(4, 10*time.Millisecond)
	tr.SetSlowLog(sl)
	id := tr.Begin("slow", slowBase)
	span(tr, id, "action-exec", 0, 50*time.Millisecond)

	h := sl.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slowlog", nil))
	if rec.Code != 200 {
		t.Fatalf("GET status %d", rec.Code)
	}
	var got struct {
		ThresholdNS int64       `json:"threshold_ns"`
		Entries     []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if got.ThresholdNS != int64(10*time.Millisecond) || len(got.Entries) != 1 {
		t.Fatalf("GET = %+v", got)
	}
	if got.Entries[0].AttributedNS["action-exec"] != int64(50*time.Millisecond) {
		t.Fatalf("attribution lost in JSON: %v", got.Entries[0].AttributedNS)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/slowlog?threshold=250ms", nil))
	if rec.Code != 200 || sl.Threshold() != 250*time.Millisecond {
		t.Fatalf("POST threshold: status %d, threshold %v", rec.Code, sl.Threshold())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/slowlog?action=clear", nil))
	if rec.Code != 200 || sl.Len() != 0 {
		t.Fatalf("POST clear: status %d, len %d", rec.Code, sl.Len())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/slowlog?threshold=nonsense", nil))
	if rec.Code != 400 {
		t.Fatalf("bad threshold accepted: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/slowlog", nil))
	if rec.Code != 405 {
		t.Fatalf("DELETE status %d", rec.Code)
	}
}

func TestSpanCoverage(t *testing.T) {
	mk := func(at, dur time.Duration) Span {
		return Span{Start: slowBase.Add(at), Dur: dur}
	}
	cases := []struct {
		name  string
		spans []Span
		want  time.Duration
	}{
		{"empty", nil, 0},
		{"single", []Span{mk(0, 10)}, 10},
		{"disjoint", []Span{mk(0, 10), mk(20, 10)}, 20},
		{"overlap counted once", []Span{mk(0, 10), mk(5, 10)}, 15},
		{"nested", []Span{mk(0, 100), mk(10, 20)}, 100},
		{"unsorted input", []Span{mk(50, 10), mk(0, 10), mk(55, 20)}, 35},
		{"touching merge", []Span{mk(0, 10), mk(10, 10)}, 20},
	}
	for _, c := range cases {
		if got := SpanCoverage(c.spans); got != c.want {
			t.Errorf("%s: coverage = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	reg := NewRegistry()
	bi := RegisterBuildInfo(reg)
	if bi.GoVersion == "" || bi.Module == "" {
		t.Fatalf("empty build info: %+v", bi)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reach_build_info{") || !strings.Contains(buf.String(), "\"} 1\n") {
		t.Fatalf("reach_build_info missing from exposition, or not 1:\n%s", buf.String())
	}
}

func TestHistogramP95InSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("x_seconds", "test")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	var fam FamilySnapshot
	for _, f := range reg.Snapshot() {
		if f.Name == "x_seconds" {
			fam = f
		}
	}
	s := fam.Series[0]
	if s.P95NS <= 0 || s.P95NS < s.P50NS || s.P95NS > s.P99NS {
		t.Fatalf("p95 out of order: p50=%v p95=%v p99=%v", s.P50NS, s.P95NS, s.P99NS)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "p95_ns") {
		t.Fatalf("p95_ns missing from JSON: %s", b)
	}
}
