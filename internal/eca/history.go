package eca

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// HistoryEntry is one recorded event occurrence.
type HistoryEntry struct {
	Seq  uint64
	Txn  uint64
	Key  string
	Time time.Time
}

// historyRing is a fixed-capacity ring buffer of occurrences behind
// its own mutex: the local history each ECA-manager keeps so that
// logging does not funnel through a central bottleneck (§6.3), and the
// global history the locals are consolidated into. bytes is the
// approximate footprint of what the ring holds, kept under mu.
type historyRing struct {
	mu    sync.Mutex
	buf   []HistoryEntry
	start int
	n     int
	bytes int64
}

func newHistoryRing(capacity int) *historyRing {
	return &historyRing{buf: make([]HistoryEntry, max(capacity, 1))}
}

// historyEntryOverhead approximates the fixed in-memory cost of one
// HistoryEntry (struct fields plus string header); the key's bytes
// are added on top. Exactness does not matter — the governor needs a
// monotone footprint signal, not an allocator audit.
const historyEntryOverhead = 64

func entrySize(e HistoryEntry) int64 {
	return historyEntryOverhead + int64(len(e.Key))
}

// append records entries in order, each evicting the oldest entry once
// the ring is full.
func (r *historyRing) append(entries ...HistoryEntry) {
	r.mu.Lock()
	for _, e := range entries {
		r.bytes += entrySize(e)
		if r.n < len(r.buf) {
			r.buf[(r.start+r.n)%len(r.buf)] = e
			r.n++
			continue
		}
		r.bytes -= entrySize(r.buf[r.start])
		r.buf[r.start] = e
		r.start = (r.start + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// entries returns a copy of the ring in Seq order. Appends arrive in
// hand-off or recording order, which interleaves concurrent
// transactions' occurrences; readers get occurrence order.
func (r *historyRing) entries() []HistoryEntry {
	r.mu.Lock()
	out := make([]HistoryEntry, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b HistoryEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// footprint reports the ring's approximate byte footprint.
func (r *historyRing) footprint() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// GlobalHistory returns the consolidated event history, oldest first.
func (e *Engine) GlobalHistory() []HistoryEntry {
	return e.hist.entries()
}

// HistoryBytes reports the approximate byte footprint of every event
// history (global plus per-manager locals) — a governor resource. It
// sums the rings on each read.
func (e *Engine) HistoryBytes() int64 {
	n := e.hist.footprint()
	e.mu.RLock()
	for _, m := range e.managers {
		n += m.local.footprint()
	}
	e.mu.RUnlock()
	return n
}

// handOffHistory moves a finished transaction's occurrences — the list
// record kept on it — into the global history, in occurrence order.
// In distributed mode this runs after the transaction ends, off the
// detection fast path, and costs the transaction's own events only: one
// that raised nothing touches no history lock.
func (e *Engine) handOffHistory(entries []HistoryEntry) {
	if len(entries) == 0 {
		return
	}
	// Parallel sibling rules append in arrival order, not Seq order.
	slices.SortFunc(entries, func(a, b HistoryEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	e.hist.append(entries...)
}
