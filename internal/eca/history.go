package eca

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic" //lint:allow rawatomics history shard round-robin counter, not metrics
	"time"

	"repro/internal/obs"
	"repro/internal/txn"
)

// HistoryEntry is one recorded event occurrence.
type HistoryEntry struct {
	Seq  uint64
	Txn  uint64
	Key  string
	Time time.Time
}

// historyRing is a fixed-capacity ring buffer of occurrences — the
// local history each ECA-manager keeps so that logging does not
// funnel through a central bottleneck (§6.3).
type historyRing struct {
	buf   []HistoryEntry
	start int
	n     int
}

func newHistoryRing(capacity int) *historyRing {
	if capacity < 1 {
		capacity = 1
	}
	return &historyRing{buf: make([]HistoryEntry, capacity)}
}

// historyEntryOverhead approximates the fixed in-memory cost of one
// HistoryEntry (struct fields plus string header); the key's bytes
// are added on top. Exactness does not matter — the governor needs a
// monotone footprint signal, not an allocator audit.
const historyEntryOverhead = 64

func entrySize(e HistoryEntry) int64 {
	return historyEntryOverhead + int64(len(e.Key))
}

// append records e and returns the ring's byte-footprint delta
// (negative contributions come from the entry an insert evicts).
func (r *historyRing) append(e HistoryEntry) int64 {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return entrySize(e)
	}
	delta := entrySize(e) - entrySize(r.buf[r.start])
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	return delta
}

func (r *historyRing) entries() []HistoryEntry {
	out := make([]HistoryEntry, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// historyShards is the maximum number of partitions a sharded history
// splits into. A power of two so shard selection is a mask.
const historyShards = 8

// shardedHistory is a history split across up to historyShards ring
// shards, each behind its own mutex, so concurrent recorders on the
// raise path do not serialize on one history lock — the §6.3 argument
// against a central log, applied a second time inside each history.
// Appends distribute round-robin; the shard count is the largest
// power-of-two divisor of the capacity (≤ historyShards), which keeps
// the eviction contract exact: the union of the shards always holds
// precisely the most recent capacity appends. Readers consolidate by
// merging the shards and sorting by Seq — reads are the slow path.
type shardedHistory struct {
	ctr    atomic.Uint64
	mask   uint64
	shards []historyShard
	// bytes accumulates the rings' approximate footprint. The engine
	// points every history (global and per-manager local) at one
	// shared gauge so the governor reads total footprint in one load;
	// standalone histories get a private gauge.
	bytes *obs.Gauge
}

type historyShard struct {
	mu   sync.Mutex
	ring *historyRing
	// pad keeps neighbouring shards off one cache line so round-robin
	// writers do not false-share.
	_ [40]byte
}

func newShardedHistory(capacity int) *shardedHistory {
	if capacity < 1 {
		capacity = 1
	}
	n := historyShards
	for capacity%n != 0 {
		n /= 2
	}
	h := &shardedHistory{mask: uint64(n - 1), shards: make([]historyShard, n), bytes: new(obs.Gauge)}
	for i := range h.shards {
		h.shards[i].ring = newHistoryRing(capacity / n)
	}
	return h
}

func (h *shardedHistory) append(e HistoryEntry) {
	s := &h.shards[h.ctr.Add(1)&h.mask]
	s.mu.Lock()
	delta := s.ring.append(e)
	s.mu.Unlock()
	if delta != 0 {
		h.bytes.Add(delta)
	}
}

// entries consolidates the shards into one Seq-ordered slice.
func (h *shardedHistory) entries() []HistoryEntry {
	var out []HistoryEntry
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		out = append(out, s.ring.entries()...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// GlobalHistory returns the consolidated event history, oldest first.
func (e *Engine) GlobalHistory() []HistoryEntry {
	return e.hist.entries()
}

// handOffHistory moves a finished transaction's occurrences — the list
// record kept on it — into the global history, in occurrence order.
// In distributed mode this runs after the transaction ends, off the
// detection fast path, and costs the transaction's own events only: one
// that raised nothing touches no history lock.
func (e *Engine) handOffHistory(top *txn.Txn) {
	st := txnStateOf(top)
	if st == nil {
		return
	}
	st.mu.Lock()
	entries := st.hist
	st.hist, st.histClosed = nil, true
	st.mu.Unlock()
	// Parallel sibling rules append in arrival order, not Seq order.
	slices.SortFunc(entries, func(a, b HistoryEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	for _, en := range entries {
		e.hist.append(en)
	}
}
