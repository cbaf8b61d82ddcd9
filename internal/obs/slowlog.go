package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one promoted trace in the slow-transaction log: the
// trace itself plus its end-to-end duration (trace start to the end
// of its last-finishing span) at promotion time.
type SlowEntry struct {
	Trace Trace `json:"trace"`
	// TotalNS is the end-to-end duration in nanoseconds.
	TotalNS int64 `json:"total_ns"`
	// AttributedNS maps span stage -> summed span nanoseconds, the
	// per-phase latency attribution of the trace.
	AttributedNS map[string]int64 `json:"attributed_ns"`
	// CoveredNS is the union length (overlap counted once) of every
	// span interval, i.e. how much of TotalNS the spans explain.
	CoveredNS int64 `json:"covered_ns"`
}

// SlowLog retains traces whose end-to-end duration exceeded a
// configurable threshold. Traces normally live in the tracer's
// bounded eviction ring and are overwritten by newer traffic; a slow
// trace is promoted out of the ring into this log so it survives long
// enough to be looked at. The log is itself bounded: when full, the
// oldest promoted trace is dropped.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; <= 0 disables promotion

	mu       sync.Mutex
	capacity int
	entries  []SlowEntry // promotion order, oldest first
	index    map[uint64]int

	// promotions/evictions/depth are standalone by default and
	// rebound by Instrument.
	promotions *Counter
	evictions  *Counter
	depth      *Gauge
}

// NewSlowLog returns a slow log retaining up to capacity promoted
// traces (default 64 when capacity <= 0). Promotion is disabled until
// a positive threshold is set.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 64
	}
	sl := &SlowLog{
		capacity:   capacity,
		index:      make(map[uint64]int),
		promotions: new(Counter),
		evictions:  new(Counter),
		depth:      new(Gauge),
	}
	sl.threshold.Store(int64(threshold))
	return sl
}

// Instrument rebinds the log's counters into reg.
func (sl *SlowLog) Instrument(reg *Registry) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.promotions = reg.Counter("reach_slowlog_promotions_total",
		"Traces promoted into the slow-transaction log.")
	sl.evictions = reg.Counter("reach_slowlog_evictions_total",
		"Promoted traces dropped because the slow log was full.")
	sl.depth = reg.Gauge("reach_slowlog_depth",
		"Traces currently retained in the slow-transaction log.")
}

// SetThreshold sets the promotion threshold; zero or negative
// disables promotion.
func (sl *SlowLog) SetThreshold(d time.Duration) { sl.threshold.Store(int64(d)) }

// Threshold reports the current promotion threshold.
func (sl *SlowLog) Threshold() time.Duration { return time.Duration(sl.threshold.Load()) }

// promote records t (a copy owned by the log) with the given
// end-to-end duration. A trace already promoted is updated in place —
// spans keep arriving after the threshold crossing — without counting
// as a second promotion.
func (sl *SlowLog) promote(t Trace, total time.Duration) {
	entry := SlowEntry{
		Trace:        t,
		TotalNS:      int64(total),
		AttributedNS: attributeSpans(t.Spans),
		CoveredNS:    int64(SpanCoverage(t.Spans)),
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if i, ok := sl.index[t.ID]; ok {
		sl.entries[i] = entry
		return
	}
	if len(sl.entries) >= sl.capacity {
		evicted := sl.entries[0]
		sl.entries = sl.entries[1:]
		delete(sl.index, evicted.Trace.ID)
		for id, i := range sl.index {
			sl.index[id] = i - 1
		}
		sl.evictions.Inc()
	}
	sl.index[t.ID] = len(sl.entries)
	sl.entries = append(sl.entries, entry)
	sl.promotions.Inc()
	sl.depth.Set(int64(len(sl.entries)))
}

// Snapshot returns the promoted traces, newest promotion first.
func (sl *SlowLog) Snapshot() []SlowEntry {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	out := make([]SlowEntry, 0, len(sl.entries))
	for i := len(sl.entries) - 1; i >= 0; i-- {
		e := sl.entries[i]
		e.Trace = e.Trace.copy()
		out = append(out, e)
	}
	return out
}

// Len reports the number of promoted traces currently retained, as
// the reach_slowlog_depth gauge does.
func (sl *SlowLog) Len() int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return int(sl.depth.Value())
}

// Clear empties the log and returns how many entries were dropped.
func (sl *SlowLog) Clear() int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	n := len(sl.entries)
	sl.entries = nil
	sl.index = make(map[uint64]int)
	sl.depth.Set(0)
	return n
}

// Handler serves the slow log over HTTP:
//
//	GET  /slowlog                    threshold + promoted traces, newest first
//	POST /slowlog?action=clear       empty the log
//	POST /slowlog?threshold=250ms    change the promotion threshold
func (sl *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeSlowJSON(w, map[string]any{
				"threshold_ns": int64(sl.Threshold()),
				"entries":      sl.Snapshot(),
			})
		case http.MethodPost:
			if th := r.FormValue("threshold"); th != "" {
				d, err := time.ParseDuration(th)
				if err != nil {
					http.Error(w, "bad threshold: "+err.Error(), http.StatusBadRequest)
					return
				}
				sl.SetThreshold(d)
				writeSlowJSON(w, map[string]any{"threshold_ns": int64(d)})
				return
			}
			if r.FormValue("action") != "clear" {
				http.Error(w, "unsupported action (want action=clear or threshold=<dur>)",
					http.StatusBadRequest)
				return
			}
			writeSlowJSON(w, map[string]any{"cleared": sl.Clear()})
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

func writeSlowJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// attributeSpans sums span durations by stage.
func attributeSpans(spans []Span) map[string]int64 {
	out := make(map[string]int64, 8)
	for _, sp := range spans {
		out[sp.Stage] += int64(sp.Dur)
	}
	return out
}

// SpanCoverage returns the union length of the span intervals —
// overlapping spans (a commit span enclosing the wal-fsync it forces,
// a detect span enclosing immediate rule execution) are counted once.
// It is the honest answer to "how much of this trace's wall time do
// the recorded phases explain".
func SpanCoverage(spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	type iv struct{ s, e time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, sp := range spans {
		ivs = append(ivs, iv{sp.Start, sp.Start.Add(sp.Dur)})
	}
	// Insertion sort by start; span counts are small (<= maxSpansPerTrace).
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].s.Before(ivs[j-1].s); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total time.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if !v.s.After(cur.e) {
			if v.e.After(cur.e) {
				cur.e = v.e
			}
			continue
		}
		total += cur.e.Sub(cur.s)
		cur = v
	}
	total += cur.e.Sub(cur.s)
	return total
}
