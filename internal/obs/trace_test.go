package obs

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

var t0 = time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC)

func TestTracerBeginSpanGet(t *testing.T) {
	tr := NewTracer(8)
	id := tr.Begin("event:update", t0)
	if id == 0 {
		t.Fatal("Begin returned 0")
	}
	tr.Span(id, "detect", "event:update", t0, time.Millisecond)
	tr.Span(id, "condition-eval", "RuleA", t0.Add(time.Millisecond), 2*time.Millisecond)
	got, ok := tr.Get(id)
	if !ok {
		t.Fatal("trace not found")
	}
	if got.Root != "event:update" || len(got.Spans) != 2 {
		t.Fatalf("trace = %+v", got)
	}
	if got.Spans[1].Stage != "condition-eval" || got.Spans[1].Dur != 2*time.Millisecond {
		t.Fatalf("span = %+v", got.Spans[1])
	}
	// Get returns a copy: mutating it must not affect the ring.
	got.Spans[0].Stage = "mutated"
	again, _ := tr.Get(id)
	if again.Spans[0].Stage != "detect" {
		t.Fatal("Get returned a view into the live trace")
	}
}

func TestTracerSpanOnZeroAndUnknownID(t *testing.T) {
	tr := NewTracer(4)
	tr.Span(0, "detect", "", t0, 0)   // no-op
	tr.Span(999, "detect", "", t0, 0) // evicted/unknown: dropped
	if tr.Len() != 0 {
		t.Fatalf("len = %d, want 0", tr.Len())
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer(4)
	ids := make([]uint64, 8)
	for i := range ids {
		ids[i] = tr.Begin("root", t0)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", tr.Len())
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if _, ok := tr.Get(ids[7]); !ok {
		t.Fatal("latest trace missing")
	}
	// A span for an evicted trace must not corrupt its slot's new owner.
	tr.Span(ids[0], "detect", "", t0, time.Second)
	if tc, _ := tr.Get(ids[4]); len(tc.Spans) != 0 {
		t.Fatalf("evicted-trace span leaked into slot reuse: %+v", tc.Spans)
	}
	recent := tr.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("recent = %d traces, want 4", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i-1].ID <= recent[i].ID {
			t.Fatal("Recent not newest-first")
		}
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer(2)
	id := tr.Begin("storm", t0)
	for i := 0; i < maxSpansPerTrace+5; i++ {
		tr.Span(id, "action-exec", "r", t0, 0)
	}
	got, _ := tr.Get(id)
	if len(got.Spans) != maxSpansPerTrace || got.Dropped != 5 {
		t.Fatalf("spans=%d dropped=%d, want %d/5", len(got.Spans), got.Dropped, maxSpansPerTrace)
	}
}

func TestRecentSortsSpansByStart(t *testing.T) {
	tr := NewTracer(2)
	id := tr.Begin("r", t0)
	tr.Span(id, "late", "", t0.Add(time.Second), 0)
	tr.Span(id, "early", "", t0, 0)
	rec := tr.Recent(1)
	if len(rec) != 1 || rec[0].Spans[0].Stage != "early" {
		t.Fatalf("recent spans not start-ordered: %+v", rec)
	}
}

// TestTracerConcurrent exercises mint/record/read races under the
// race detector.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(16)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.Begin("root", t0)
				tr.Span(id, "detect", "k", t0, time.Duration(i))
				tr.Span(id, "commit", "k", t0, time.Duration(i))
				tr.Get(id)
				if i%50 == 0 {
					tr.Recent(8)
				}
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 16 {
		t.Fatalf("len = %d, want full ring of 16", tr.Len())
	}
}

// Every traced occurrence writes its stripe's mutex and its ring slot:
// each stripe fills one cache line and each slot whole lines, and Begin's
// ID counter has a line of its own, so two cores tracing neighbouring
// IDs write no common line.
func TestTracerWritesOwnCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(traceStripe{}); n != cacheLine {
		t.Errorf("stripe is %d bytes, want one %d-byte line", n, cacheLine)
	}
	if n := unsafe.Sizeof(traceSlot{}); n%cacheLine != 0 {
		t.Errorf("ring slot is %d bytes, want whole %d-byte lines", n, cacheLine)
	}
	var tr Tracer
	if off := unsafe.Offsetof(tr.cap); off < cacheLine {
		t.Errorf("the fields after the ID counter start at byte %d, want its line to itself", off)
	}
}
