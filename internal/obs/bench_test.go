package obs

import (
	"testing"
	"time"
)

// BenchmarkTracerSpan is one event's worth of tracing in steady state:
// mint a trace, record a rule firing's three phases in one call and the
// detect span in another.
func BenchmarkTracerSpan(b *testing.B) {
	tr := NewTracer(256)
	now := time.Unix(0, 0)
	phases := []Span{
		{Stage: "condition-eval", Key: "r", Start: now, Dur: time.Microsecond},
		{Stage: "action-exec", Key: "r", Start: now, Dur: time.Microsecond},
		{Stage: "commit", Key: "r", Start: now, Dur: time.Microsecond},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Begin("method:C.m:after", now)
		tr.Spans(id, phases...)
		tr.Span(id, "detect", "method:C.m:after", now, time.Microsecond)
	}
}

// A recycled ring slot keeps its span array: steady-state tracing does
// not allocate.
func TestTracerSteadyStateDoesNotAllocate(t *testing.T) {
	tr := NewTracer(8)
	now := time.Unix(0, 0)
	record := func() {
		id := tr.Begin("root", now)
		tr.Spans(id, Span{Stage: "a", Start: now}, Span{Stage: "b", Start: now})
		tr.Span(id, "c", "", now, 0)
	}
	for i := 0; i < 16; i++ {
		record()
	}
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Fatalf("tracing into recycled slots: %.0f allocations per event, want 0", n)
	}
	got, ok := tr.Get(tr.next.Load())
	if !ok || len(got.Spans) != 3 || got.Spans[0].Stage != "a" || got.Spans[2].Stage != "c" {
		t.Fatalf("latest trace = %+v, want its own three spans only", got)
	}
}

func TestSpansBatchRespectsPerTraceCap(t *testing.T) {
	tr := NewTracer(4)
	now := time.Unix(0, 0)
	id := tr.Begin("root", now)
	batch := make([]Span, 50)
	for i := 0; i < 3; i++ {
		tr.Spans(id, batch...)
	}
	got, _ := tr.Get(id)
	if len(got.Spans) != maxSpansPerTrace || got.Dropped != 150-maxSpansPerTrace {
		t.Fatalf("kept %d spans, dropped %d; want %d and %d",
			len(got.Spans), got.Dropped, maxSpansPerTrace, 150-maxSpansPerTrace)
	}
}
