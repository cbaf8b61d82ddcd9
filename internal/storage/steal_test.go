package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// Steal protection and transaction-state recycling: a frame stays off
// the data file while any unresolved transaction dirtied it, and a
// resolved transaction's state comes back empty for the next one.

// image is a benchRecordBytes record whose prefix names it.
func image(format string, args ...any) []byte {
	rec := make([]byte, benchRecordBytes)
	copy(rec, fmt.Sprintf(format, args...))
	return rec
}

// stealCount reads page id's frame steal count, -1 when not resident.
func stealCount(s *Store, id PageID) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	fr, ok := s.pool.frames[id]
	if !ok {
		return -1
	}
	return fr.steal
}

// protectedFrames lists the resident frames whose steal count is not
// zero.
func protectedFrames(s *Store) []PageID {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	var ids []PageID
	for id, fr := range s.pool.frames {
		if fr.steal != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

func onFreeList(s *Store, st *txnState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Contains(s.free, st)
}

func activeState(s *Store, txn uint64) *txnState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active[txn]
}

// diskRecord reads rid's record from the data file, bypassing the pool.
func diskRecord(t *testing.T, s *Store, rid RID) []byte {
	t.Helper()
	var p Page
	if err := s.pager.Read(rid.Page, &p); err != nil {
		t.Fatal(err)
	}
	rec, err := p.Get(rid.Slot)
	if err != nil {
		t.Fatalf("data file record %v: %v", rid, err)
	}
	return rec
}

func mustGet(t *testing.T, s *Store, rid RID, want []byte, what string) {
	t.Helper()
	got, err := s.Get(rid)
	if err != nil {
		t.Fatalf("%s: Get(%v): %v", what, rid, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: record %v reads %.12q, want %.12q", what, rid, got, want)
	}
}

// TestStealProtectionCountsTransactions: two transactions dirty one
// page and the first commits. The page stays off the data file —
// through evictions and a checkpoint — until the second resolves too;
// after it aborts, the next checkpoint writes only the committed image.
func TestStealProtectionCountsTransactions(t *testing.T) {
	dir := t.TempDir()
	const pool = 4
	s, rids := fillStore(t, dir, pool, 8*pool*(PageSize/(benchRecordBytes+slotSize)))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r0, r1 := rids[0], rids[1]
	if r0.Page != r1.Page {
		t.Fatalf("records %v and %v are on different pages", r0, r1)
	}
	orig := diskRecord(t, s, r1)
	committed, uncommitted := image("committed"), image("uncommitted")

	const t1, t2 = 1 << 20, 1<<20 + 1
	for _, txn := range []uint64{t1, t2} {
		if err := s.Begin(txn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Update(t1, r0, committed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(t2, r1, uncommitted); err != nil {
		t.Fatal(err)
	}
	if n := stealCount(s, r0.Page); n != 2 {
		t.Fatalf("page %d steal count %d with two transactions on it, want 2", r0.Page, n)
	}
	if err := s.Commit(t1); err != nil {
		t.Fatal(err)
	}

	// Eviction pressure: hold pins on other pages and fault the rest of
	// the store through what is left of the pool.
	var pinned []PageID
	for _, rid := range rids {
		if rid.Page != r0.Page && !slices.Contains(pinned, rid.Page) && len(pinned) < pool-1 {
			if _, err := s.pool.Pin(rid.Page); err != nil {
				t.Fatal(err)
			}
			pinned = append(pinned, rid.Page)
		}
	}
	for _, rid := range rids {
		if rid.Page != r0.Page {
			if _, err := s.Get(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range pinned {
		s.pool.Unpin(id, false, false)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := diskRecord(t, s, r1); !bytes.Equal(got, orig) {
		t.Fatalf("page %d reached the data file while a transaction that dirtied it is active: record %v reads %.12q",
			r1.Page, r1, got)
	}

	if _, err := s.Abort(t2); err != nil {
		t.Fatal(err)
	}
	if ids := protectedFrames(s); len(ids) != 0 {
		t.Fatalf("frames %v still steal-protected with no transaction unresolved", ids)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := diskRecord(t, s, r0); !bytes.Equal(got, committed) {
		t.Fatalf("checkpoint after both resolved: record %v reads %.12q, want the committed image", r0, got)
	}
	if got := diskRecord(t, s, r1); !bytes.Equal(got, orig) {
		t.Fatalf("checkpoint after the abort: record %v reads %.12q, want its original image", r1, got)
	}

	crash(s)
	s2, err := Open(dir, Options{BufferPoolPages: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustGet(t, s2, r0, committed, "after crash")
	mustGet(t, s2, r1, orig, "after crash")
}

// TestRecycledTxnStateStartsClean: a transaction that inherits a
// resolved transaction's state undoes and logs only its own changes; a
// state grown past the recycling caps is dropped; a commit whose force
// failed keeps its pages protected and its state out of reuse.
func TestRecycledTxnStateStartsClean(t *testing.T) {
	t.Run("reuse", func(t *testing.T) {
		s, rids := fillStore(t, t.TempDir(), 16, 64)
		defer s.Close()
		const big, small = 1 << 20, 1<<20 + 1
		if err := s.Begin(big); err != nil {
			t.Fatal(err)
		}
		st := activeState(s, big)
		for _, rid := range rids[:32] {
			if _, err := s.Update(big, rid, image("big")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(big); err != nil {
			t.Fatal(err)
		}
		if !onFreeList(s, st) {
			t.Fatal("a resolved state within the caps is not on the free list")
		}
		if err := s.Begin(small); err != nil {
			t.Fatal(err)
		}
		if activeState(s, small) != st {
			t.Fatal("Begin did not reuse the resolved state")
		}
		orig, err := s.Get(rids[40])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(small, rids[40], image("small")); err != nil {
			t.Fatal(err)
		}
		before := s.wal.NextLSN()
		reloc, err := s.Abort(small)
		if err != nil {
			t.Fatal(err)
		}
		if reloc != nil {
			t.Fatalf("in-place abort returned relocations %v", reloc)
		}
		// One compensation record for the one update, then ABORT.
		if n := s.wal.NextLSN() - before; n != 2 {
			t.Fatalf("abort of one update logged %d records, want 2", n)
		}
		mustGet(t, s, rids[40], orig, "after the abort")
		for _, rid := range rids[:32] {
			mustGet(t, s, rid, image("big"), "the previous owner's committed record")
		}
		if ids := protectedFrames(s); len(ids) != 0 {
			t.Fatalf("frames %v still steal-protected with no transaction unresolved", ids)
		}
	})

	t.Run("over cap", func(t *testing.T) {
		s, rids := fillStore(t, t.TempDir(), 16, 1)
		defer s.Close()
		const txn = 1 << 20
		if err := s.Begin(txn); err != nil {
			t.Fatal(err)
		}
		st := activeState(s, txn)
		for i := 0; i <= maxRecycledBefore/benchRecordBytes; i++ {
			if _, err := s.Update(txn, rids[0], image("v%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
		if onFreeList(s, st) {
			t.Fatalf("a state with a %d-byte before-image arena was kept", cap(st.before))
		}
	})

	t.Run("in doubt", func(t *testing.T) {
		defer fault.DisarmAll()
		s, rids := fillStore(t, t.TempDir(), 16, 1)
		defer s.Close()
		const txn = 1 << 20
		if err := s.Begin(txn); err != nil {
			t.Fatal(err)
		}
		st := activeState(s, txn)
		if _, err := s.Update(txn, rids[0], image("in doubt")); err != nil {
			t.Fatal(err)
		}
		if err := fault.Arm(fault.SiteWALSync, "error-once"); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(txn); !errors.Is(err, ErrInDoubt) {
			t.Fatalf("Commit with failing fsync = %v, want ErrInDoubt", err)
		}
		if onFreeList(s, st) {
			t.Fatal("the state of an in-doubt commit went back on the free list")
		}
		if n := stealCount(s, rids[0].Page); n != 1 {
			t.Fatalf("in-doubt commit left page %d with steal count %d, want 1", rids[0].Page, n)
		}
	})
}

// TestConcurrentCommitsSharePages: four goroutines commit and abort
// updates to their own records on shared pages, through a pool smaller
// than the store, beside the background checkpointer. The store ends
// with no frame protected, and a crash and reopen reads exactly the
// committed images.
func TestConcurrentCommitsSharePages(t *testing.T) {
	const (
		workers = 4
		perW    = 16 // records per worker, interleaved across pages
		txns    = 150
	)
	dir := t.TempDir()
	opts := Options{
		BufferPoolPages: 2,
		Checkpoint:      CheckpointOptions{Auto: true, WALBytes: 32 << 10, Interval: 5 * time.Millisecond},
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rids := make([][]RID, workers)
	committed := make([][][]byte, workers)
	if err := s.Begin(1); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < perW; k++ {
		for w := 0; w < workers; w++ {
			rec := image("w%d-r%d-v0", w, k)
			rid, err := s.Insert(1, rec)
			if err != nil {
				t.Fatal(err)
			}
			rids[w] = append(rids[w], rid)
			committed[w] = append(committed[w], rec)
		}
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < txns; i++ {
				txn := uint64(w+1)<<32 | uint64(i+1)
				if err := s.Begin(txn); err != nil {
					errs <- err
					return
				}
				touched := map[int][]byte{}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					k := rng.Intn(perW)
					rec := image("w%d-r%d-t%d", w, k, i)
					if _, err := s.Update(txn, rids[w][k], rec); err != nil {
						errs <- err
						return
					}
					touched[k] = rec
				}
				if rng.Intn(3) == 0 {
					if _, err := s.Abort(txn); err != nil {
						errs <- err
						return
					}
					continue
				}
				if err := s.Commit(txn); err != nil {
					errs <- err
					return
				}
				for k, rec := range touched {
					committed[w][k] = rec
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ids := protectedFrames(s); len(ids) != 0 {
		t.Fatalf("frames %v still steal-protected with no transaction unresolved", ids)
	}
	if s.CheckpointHealth().Checkpoints == 0 {
		t.Fatal("the background checkpointer never ran beside the workers")
	}
	s.stopCheckpointer()
	crash(s)

	s2, err := Open(dir, Options{BufferPoolPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for w := range rids {
		for k, rid := range rids[w] {
			mustGet(t, s2, rid, committed[w][k], "after crash")
		}
	}
}
