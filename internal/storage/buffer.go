package storage

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// BufferPool caches page frames with pin counts and LRU eviction.
//
// The pool enforces the store's no-steal policy: a frame dirtied by a
// transaction that has not yet committed is never written back or
// evicted. Each frame counts the unresolved transactions that dirtied
// it; since a counted frame is never evicted, its count is never lost.
// When every frame is pinned or steal-protected, the pool grows past
// its nominal capacity rather than failing, and shrinks back as frames
// become evictable.
//
// A miss at capacity reuses the evicted victim's frame for the
// incoming page, so steady-state paging allocates nothing.
type BufferPool struct {
	pager    *Pager
	capacity int

	mu     sync.Mutex
	frames map[PageID]*frame
	// ring is the sentinel of the circular recency list threaded
	// through the frames: ring.older is the most recently used frame,
	// ring.newer the least.
	ring frame

	// hits/misses are standalone by default and rebound into the
	// shared registry when the store is opened with Metrics.
	hits   *obs.Counter
	misses *obs.Counter

	// evictions counts frames evicted.
	evictions *obs.Counter
}

// frame is one resident page. The page bytes are a separate,
// pointer-free allocation that the garbage collector never scans and
// that survives the frame's reuse for another page.
type frame struct {
	newer, older *frame // recency list links
	page         *Page
	id           PageID
	pins         int
	dirty        bool
	steal        int // unresolved transactions that dirtied the frame; > 0 blocks write-back
	// flushing marks a frame whose snapshot a fuzzy checkpoint is
	// writing back off-lock; eviction must not write a newer version
	// underneath it (the checkpoint's stale copy would then clobber
	// the newer image on disk).
	flushing bool
	recLSN   uint64 // first LSN that dirtied the frame since it was last clean
	version  uint64 // bumped on every dirtying Unpin; detects redirty during flush
}

// NewBufferPool returns a pool of the given nominal capacity over the
// pager. Capacity must be at least 1.
func NewBufferPool(pager *Pager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		pager:     pager,
		capacity:  capacity,
		frames:    make(map[PageID]*frame),
		hits:      new(obs.Counter),
		misses:    new(obs.Counter),
		evictions: new(obs.Counter),
	}
	bp.ring.newer, bp.ring.older = &bp.ring, &bp.ring
	return bp
}

// Instrument rebinds the pool's hit/miss counters into reg. Call it
// before the pool sees traffic.
func (bp *BufferPool) Instrument(reg *obs.Registry) {
	const name, help = "reach_buffer_lookups_total", "Buffer-pool page lookups by result."
	bp.hits = reg.Counter(name, help, "result", "hit")
	bp.misses = reg.Counter(name, help, "result", "miss")
	bp.evictions = reg.Counter("reach_buffer_evictions_total",
		"Buffer-pool frames evicted to make room.")
}

// Stats reports cumulative hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses uint64) {
	return bp.hits.Value(), bp.misses.Value()
}

// Pin fetches page id into the pool and pins it. The caller must call
// Unpin when done with the returned Page.
func (bp *BufferPool) Pin(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[id]; ok {
		bp.hits.Inc()
		fr.pins++
		if bp.ring.older != fr {
			bp.unlinkLocked(fr)
			bp.pushLocked(fr)
		}
		return fr.page, nil
	}
	bp.misses.Inc()
	fr, err := bp.victimLocked()
	if err != nil {
		return nil, err
	}
	// The read overwrites every byte of a recycled frame's page.
	if err := bp.pager.Read(id, fr.page); err != nil {
		return nil, err
	}
	bp.installLocked(fr, id)
	return fr.page, nil
}

// PinNew allocates a fresh page, pins it, and returns its ID.
func (bp *BufferPool) PinNew() (PageID, *Page, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return InvalidPageID, nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.victimLocked()
	if err != nil {
		return InvalidPageID, nil, err
	}
	fr.page.InitPage()
	bp.installLocked(fr, id)
	return id, fr.page, nil
}

// installLocked makes fr the resident, once-pinned, most recently used
// frame of page id, resetting everything but its page bytes.
func (bp *BufferPool) installLocked(fr *frame, id PageID) {
	*fr = frame{page: fr.page, id: id, pins: 1}
	bp.frames[id] = fr
	bp.pushLocked(fr)
}

// Unpin releases one pin on page id. dirty marks the frame modified;
// protect additionally counts one more in-flight transaction that
// dirtied it, which ReleaseSteal uncounts when it resolves. A frame
// going from clean to dirty takes the page LSN as its recLSN: callers
// stamp the LSN of the record they applied before unpinning.
func (bp *BufferPool) Unpin(id PageID, dirty, protect bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || fr.pins == 0 {
		panic(fmt.Sprintf("storage: Unpin(%d) without pin", id))
	}
	fr.pins--
	if dirty {
		if !fr.dirty {
			fr.dirty = true
			fr.recLSN = fr.page.LSN()
		}
		fr.version++
	}
	if protect {
		fr.steal++
	}
}

// ReleaseSteal uncounts one resolved transaction that dirtied page id;
// once none is left the frame is writable and evictable again. The
// store calls it once per page when a transaction commits or aborts.
func (bp *BufferPool) ReleaseSteal(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || fr.steal == 0 {
		panic(fmt.Sprintf("storage: ReleaseSteal(%d) without protection", id))
	}
	fr.steal--
}

// victimLocked returns a frame for one more resident page. Below
// capacity that is a new frame; at capacity it is the least recently
// used evictable frame, written back if dirty and evicted. Pinned,
// no-steal and flushing frames are skipped; if none is evictable the
// pool grows by a new frame.
func (bp *BufferPool) victimLocked() (*frame, error) {
	if len(bp.frames) >= bp.capacity {
		for fr := bp.ring.newer; fr != &bp.ring; fr = fr.newer {
			if fr.pins > 0 || fr.steal > 0 || fr.flushing {
				continue
			}
			if fr.dirty {
				if fp := fault.Hit(fault.SiteBufferEvict); fp != nil {
					return nil, fmt.Errorf("storage: evict page %d: %w", fr.id, fp.Err)
				}
				if err := bp.pager.Write(fr.id, fr.page); err != nil {
					return nil, err
				}
			}
			bp.unlinkLocked(fr)
			delete(bp.frames, fr.id)
			bp.evictions.Inc()
			return fr, nil
		}
	}
	return &frame{page: new(Page)}, nil
}

// pushLocked links fr in as the most recently used frame.
func (bp *BufferPool) pushLocked(fr *frame) {
	fr.newer, fr.older = &bp.ring, bp.ring.older
	fr.older.newer, bp.ring.older = fr, fr
}

// unlinkLocked removes fr from the recency list.
func (bp *BufferPool) unlinkLocked(fr *frame) {
	fr.newer.older, fr.older.newer = fr.older, fr.newer
}

// DirtyIDs snapshots the IDs of dirty, steal-safe frames — the fuzzy
// checkpoint's working set.
func (bp *BufferPool) DirtyIDs() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var ids []PageID
	for id, fr := range bp.frames {
		if fr.dirty && fr.steal == 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// SnapshotFrame copies page id's bytes into dst and marks the frame
// flushing, returning the frame version the copy reflects. It reports
// false when the frame is gone, clean, steal-protected, or already
// being flushed. The caller must also hold the store mutex so the copy
// cannot catch a record mutation mid-write, and must pair a true
// return with EndFlush.
func (bp *BufferPool) SnapshotFrame(id PageID, dst *Page) (uint64, bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || !fr.dirty || fr.steal > 0 || fr.flushing {
		return 0, false
	}
	*dst = *fr.page
	fr.flushing = true
	return fr.version, true
}

// EndFlush ends a SnapshotFrame window. When the write-back (and its
// fsync) succeeded and nobody redirtied the frame meanwhile, the frame
// becomes clean; otherwise it stays dirty and a later checkpoint
// retries.
func (bp *BufferPool) EndFlush(id PageID, version uint64, written bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok {
		return
	}
	fr.flushing = false
	if written && fr.version == version {
		fr.dirty = false
		fr.recLSN = 0
	}
}

// MinDirtyRecLSN reports the smallest recLSN over dirty frames, or 0
// when no dirty frame carries one — the dirty-page contribution to a
// fuzzy checkpoint's redoLSN.
func (bp *BufferPool) MinDirtyRecLSN() uint64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var minLSN uint64
	for _, fr := range bp.frames {
		if fr.dirty && fr.recLSN != 0 && (minLSN == 0 || fr.recLSN < minLSN) {
			minLSN = fr.recLSN
		}
	}
	return minLSN
}

// Len reports the number of resident frames.
func (bp *BufferPool) Len() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
