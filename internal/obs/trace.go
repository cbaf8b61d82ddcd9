package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Span is one recorded stage of an event's life: sentry detection,
// composition, deferred queuing, condition evaluation, action
// execution, commit/abort. Key names the thing the stage worked on
// (spec key, composite name, or rule name).
type Span struct {
	Stage string        `json:"stage"`
	Key   string        `json:"key,omitempty"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

// Trace is the end-to-end record of one event occurrence from sentry
// firing to rule-transaction resolution. Spans appear in completion
// order; sort by Start for the lifecycle view.
type Trace struct {
	ID      uint64    `json:"id"`
	Root    string    `json:"root"`
	Start   time.Time `json:"start"`
	Spans   []Span    `json:"spans"`
	Dropped int       `json:"dropped,omitempty"` // spans beyond the per-trace cap
}

// maxSpansPerTrace bounds the memory of one trace; a cascading rule
// storm records its first spans and counts the rest.
const maxSpansPerTrace = 128

// traceStripes is the number of lock stripes; a power of two.
const traceStripes = 16

// cacheLine is the size the tracer's stripes and ring slots are padded
// to: every traced occurrence writes its stripe's mutex and its slot,
// and two cores tracing neighbouring IDs would otherwise write one line.
const cacheLine = 64

// Tracer mints trace IDs and records spans into a bounded ring: slot
// i holds the most recent trace with ID ≡ i (mod capacity), so memory
// is fixed and old traces are overwritten by new ones — a slot keeps
// its span array for the next occupant when the last one filled more
// than half of it, so steady-state tracing allocates nothing and holds
// no more than the traces in the ring need. An unused slot has ID 0.
// Stripes keep concurrent recorders off each other's locks, and the
// padding keeps them off each other's cache lines.
type Tracer struct {
	next atomic.Uint64
	_    [cacheLine - 8]byte // next is written by every Begin

	cap     uint64
	stripes [traceStripes]traceStripe
	slots   []traceSlot

	// slow, when set, receives traces whose end-to-end duration
	// crosses the slow log's threshold. Stored atomically so SetSlowLog
	// is safe even after the tracer has seen traffic.
	slow atomic.Pointer[SlowLog]
}

// NewTracer returns a tracer retaining up to capacity traces
// (default 256 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{cap: uint64(capacity), slots: make([]traceSlot, capacity)}
}

// traceStripe is one of the tracer's locks, padded to a cache line.
type traceStripe struct {
	mu sync.Mutex
	_  [cacheLine - unsafe.Sizeof(sync.Mutex{})%cacheLine]byte
}

// traceSlot is one place in the ring, padded to whole cache lines.
type traceSlot struct {
	Trace
	_ [cacheLine - unsafe.Sizeof(Trace{})%cacheLine]byte
}

func (tr *Tracer) lock(slot uint64) *sync.Mutex {
	return &tr.stripes[slot%traceStripes].mu
}

// Begin mints a new trace rooted at key and returns its ID (never 0).
func (tr *Tracer) Begin(root string, now time.Time) uint64 {
	id := tr.next.Add(1)
	slot := id % tr.cap
	mu := tr.lock(slot)
	mu.Lock()
	t := &tr.slots[slot].Trace
	spans := t.Spans[:0]
	if 2*len(t.Spans) <= cap(t.Spans) {
		spans = nil // grown for an earlier, longer trace: do not pin it
	}
	*t = Trace{ID: id, Root: root, Start: now, Spans: spans}
	mu.Unlock()
	return id
}

// SetSlowLog installs the slow log that receives traces whose
// end-to-end duration crosses its threshold (nil detaches it).
func (tr *Tracer) SetSlowLog(sl *SlowLog) { tr.slow.Store(sl) }

// SlowLog returns the attached slow log, nil if none.
func (tr *Tracer) SlowLog() *SlowLog { return tr.slow.Load() }

// Span records one stage on trace id.
func (tr *Tracer) Span(id uint64, stage, key string, start time.Time, dur time.Duration) {
	tr.Spans(id, Span{Stage: stage, Key: key, Start: start, Dur: dur})
}

// Spans records stages on trace id under one stripe lock — a rule
// firing reports its condition, action and commit together. Spans for
// traces already evicted from the ring are dropped silently. When the
// recorded spans push the trace's end-to-end duration past the
// attached slow log's threshold, the trace is promoted out of the
// eviction ring into the slow log.
func (tr *Tracer) Spans(id uint64, spans ...Span) {
	if id == 0 || len(spans) == 0 {
		return
	}
	sl := tr.slow.Load()
	slot := id % tr.cap
	mu := tr.lock(slot)
	mu.Lock()
	t := &tr.slots[slot].Trace
	var promoted Trace
	var total time.Duration
	if t.ID == id {
		room := min(maxSpansPerTrace-len(t.Spans), len(spans))
		t.Spans = append(t.Spans, spans[:room]...)
		t.Dropped += len(spans) - room
		if sl != nil {
			if th := sl.Threshold(); th > 0 {
				if end := traceEnd(t); end >= th {
					promoted, total = t.copy(), end
				}
			}
		}
	}
	mu.Unlock()
	// The promotion itself runs outside the stripe lock: the slow log
	// has its own mutex and must not nest inside ours.
	if total > 0 {
		sl.promote(promoted, total)
	}
}

// traceEnd computes the end-to-end duration of a trace: its start to
// the end of its last-finishing span.
func traceEnd(t *Trace) time.Duration {
	var end time.Duration
	for _, sp := range t.Spans {
		if d := sp.Start.Add(sp.Dur).Sub(t.Start); d > end {
			end = d
		}
	}
	return end
}

// Get returns a copy of trace id, if it is still in the ring.
func (tr *Tracer) Get(id uint64) (Trace, bool) {
	if id == 0 {
		return Trace{}, false
	}
	slot := id % tr.cap
	mu := tr.lock(slot)
	mu.Lock()
	defer mu.Unlock()
	t := &tr.slots[slot].Trace
	if t.ID != id {
		return Trace{}, false
	}
	return t.copy(), true
}

func (t *Trace) copy() Trace {
	cp := *t
	cp.Spans = append([]Span(nil), t.Spans...)
	return cp
}

// Recent returns up to n retained traces, newest first, each with its
// spans ordered by start time.
func (tr *Tracer) Recent(n int) []Trace {
	if n <= 0 {
		return nil
	}
	out := make([]Trace, 0, n)
	for i := range tr.slots {
		mu := tr.lock(uint64(i))
		mu.Lock()
		if t := &tr.slots[i].Trace; t.ID != 0 {
			out = append(out, t.copy())
		}
		mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		spans := out[i].Spans
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })
	}
	return out
}

// Len reports how many traces are currently retained.
func (tr *Tracer) Len() int {
	n := 0
	for i := range tr.slots {
		mu := tr.lock(uint64(i))
		mu.Lock()
		if tr.slots[i].ID != 0 {
			n++
		}
		mu.Unlock()
	}
	return n
}
