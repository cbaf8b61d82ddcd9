package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

func openTestStore(t testing.TB, opts Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func TestStoreInsertGet(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	if err := s.Begin(1); err != nil {
		t.Fatal(err)
	}
	rid, err := s.Insert(1, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(rid)
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUnknownTxn(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	if _, err := s.Insert(99, []byte("x")); err == nil {
		t.Fatal("Insert with unknown txn succeeded")
	}
	if err := s.Commit(99); err == nil {
		t.Fatal("Commit of unknown txn succeeded")
	}
}

func TestStoreUpdateDeleteVisible(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	s.Begin(1)
	rid, _ := s.Insert(1, []byte("v1"))
	rid2, err := s.Update(1, rid, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(rid2)
	if !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("after update: %q", got)
	}
	if err := s.Delete(1, rid2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(rid2); err == nil {
		t.Fatal("Get after delete succeeded")
	}
	s.Commit(1)
}

func TestStoreAbortRollsBack(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	s.Begin(1)
	keep, _ := s.Insert(1, []byte("keep"))
	s.Commit(1)

	s.Begin(2)
	gone, _ := s.Insert(2, []byte("gone"))
	if _, err := s.Update(2, keep, []byte("KEEP-MUTATED")); err != nil {
		t.Fatal(err)
	}
	reloc, err := s.Abort(2)
	if err != nil {
		t.Fatal(err)
	}
	if nr, ok := reloc[keep]; ok {
		keep = nr
	}
	if _, err := s.Get(gone); err == nil {
		t.Fatal("aborted insert still visible")
	}
	got, err := s.Get(keep)
	if err != nil || !bytes.Equal(got, []byte("keep")) {
		t.Fatalf("after abort Get(keep) = %q, %v; want keep", got, err)
	}
}

func TestStoreAbortRestoresDelete(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	s.Begin(1)
	rid, _ := s.Insert(1, []byte("precious"))
	s.Commit(1)

	s.Begin(2)
	if err := s.Delete(2, rid); err != nil {
		t.Fatal(err)
	}
	reloc, err := s.Abort(2)
	if err != nil {
		t.Fatal(err)
	}
	if nr, ok := reloc[rid]; ok {
		rid = nr
	}
	got, err := s.Get(rid)
	if err != nil || !bytes.Equal(got, []byte("precious")) {
		t.Fatalf("after abort of delete: %q, %v", got, err)
	}
}

func TestStoreRecoveryCommittedSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Begin(1)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := s.Insert(1, []byte(fmt.Sprintf("rec-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: close WAL file descriptors without
	// checkpointing (dirty pages are NOT flushed).
	s.wal.Close()
	s.pager.f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, rid := range rids {
		got, err := s2.Get(rid)
		if err != nil {
			t.Fatalf("after recovery Get(%v): %v", rid, err)
		}
		if want := fmt.Sprintf("rec-%03d", i); string(got) != want {
			t.Fatalf("after recovery Get(%v) = %q, want %q", rid, got, want)
		}
	}
}

func TestStoreRecoveryUncommittedDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Begin(1)
	committed, _ := s.Insert(1, []byte("committed"))
	s.Commit(1)
	s.Begin(2)
	uncommitted, _ := s.Insert(2, []byte("uncommitted"))
	s.wal.Sync() // ops are on the log, but no commit record
	// Crash.
	s.wal.Close()
	s.pager.f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get(committed); err != nil || !bytes.Equal(got, []byte("committed")) {
		t.Fatalf("committed record lost: %q, %v", got, err)
	}
	if _, err := s2.Get(uncommitted); err == nil {
		t.Fatal("uncommitted record survived recovery")
	}
}

func TestStoreRecoveryInterleavedTxns(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Begin(1)
	s.Begin(2)
	a, _ := s.Insert(1, []byte("a1"))
	b, _ := s.Insert(2, []byte("b1")) // same page, uncommitted txn
	c, _ := s.Insert(1, []byte("c1"))
	s.Commit(1)
	_ = b
	s.wal.Sync()
	s.wal.Close()
	s.pager.f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get(a); err != nil || !bytes.Equal(got, []byte("a1")) {
		t.Fatalf("Get(a) = %q, %v", got, err)
	}
	if got, err := s2.Get(c); err != nil || !bytes.Equal(got, []byte("c1")) {
		t.Fatalf("Get(c) = %q, %v", got, err)
	}
	if _, err := s2.Get(b); err == nil {
		t.Fatal("uncommitted interleaved record survived")
	}
}

func TestStoreCheckpointBoundsReplayWindow(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	s.Begin(1)
	for i := 0; i < 50; i++ {
		s.Insert(1, make([]byte, 100))
	}
	s.Commit(1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Everything before the checkpoint is covered: the replay window
	// holds only the checkpoint protocol records themselves.
	n := 0
	s.wal.Records(func(r LogRecord) {
		n++
		if r.Kind != LogCkptBegin && r.Kind != LogCkptEnd {
			t.Fatalf("replay window still holds %v record (LSN %d)", r.Kind, r.LSN)
		}
	})
	if n != 2 {
		t.Fatalf("WAL has %d records after checkpoint, want 2 (begin+end)", n)
	}
	info, ok := s.wal.LastCheckpoint()
	if !ok || info.RedoLSN == 0 || info.EndLSN <= info.BeginLSN {
		t.Fatalf("LastCheckpoint = %+v/%v", info, ok)
	}
}

// TestStoreCheckpointWithActiveTxn is the starvation regression: a
// transaction held open across several checkpoints must not block or
// fail them (the old checkpoint refused with ErrTxnActive, so one
// long-lived writer starved log reclamation forever), and recovery
// after a crash must still deliver exactly the committed data.
func TestStoreCheckpointWithActiveTxn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{WALSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	s.Begin(1)
	held, _ := s.Insert(1, []byte("held-open")) // txn 1 stays open throughout
	var committed []RID
	for i := 0; i < 3; i++ {
		txn := uint64(10 + i)
		s.Begin(txn)
		rid, _ := s.Insert(txn, []byte(fmt.Sprintf("committed-%d", i)))
		committed = append(committed, rid)
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d with txn 1 active: %v", i, err)
		}
		// The held-open transaction pins redo: recovery must still see
		// its records to decide its fate.
		info, ok := s.wal.LastCheckpoint()
		if !ok || info.RedoLSN > s.active[1].firstLSN {
			t.Fatalf("checkpoint %d: redoLSN %d past active txn firstLSN %d",
				i, info.RedoLSN, s.active[1].firstLSN)
		}
	}
	h := s.CheckpointHealth()
	if h.Checkpoints < 3 || h.Failures != 0 || h.Degraded {
		t.Fatalf("health after 3 checkpoints = %+v", h)
	}
	// Crash with txn 1 still open: its insert must not survive.
	s.wal.Sync()
	s.wal.Close()
	s.pager.f.Close()

	s2, err := Open(dir, Options{WALSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, rid := range committed {
		if got, err := s2.Get(rid); err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("committed-%d", i))) {
			t.Fatalf("Get(committed[%d]) = %q, %v", i, got, err)
		}
	}
	if _, err := s2.Get(held); err == nil {
		t.Fatal("record of transaction open at crash survived recovery")
	}
}

func TestStoreScan(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	s.Begin(1)
	want := map[RID]string{}
	for i := 0; i < 20; i++ {
		data := fmt.Sprintf("record-%d", i)
		rid, _ := s.Insert(1, []byte(data))
		want[rid] = data
	}
	s.Commit(1)
	got := map[RID]string{}
	if err := s.Scan(func(rid RID, data []byte) { got[rid] = string(data) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Scan found %d records, want %d", len(got), len(want))
	}
	for rid, v := range want {
		if got[rid] != v {
			t.Fatalf("Scan[%v] = %q, want %q", rid, got[rid], v)
		}
	}
}

func TestStoreLargeRecordRelocation(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	s.Begin(1)
	// Fill a page almost completely, then grow one record so it must move.
	small, _ := s.Insert(1, make([]byte, 100))
	filler, _ := s.Insert(1, make([]byte, 7800))
	_ = filler
	big := make([]byte, 3000)
	for i := range big {
		big[i] = 0x5A
	}
	newRID, err := s.Update(1, small, big)
	if err != nil {
		t.Fatal(err)
	}
	if newRID == small {
		t.Fatal("expected relocation to a new RID")
	}
	got, err := s.Get(newRID)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("relocated record wrong: len=%d err=%v", len(got), err)
	}
	if _, err := s.Get(small); err == nil {
		t.Fatal("old RID still live after relocation")
	}
	s.Commit(1)
}

func TestStoreBufferPoolEviction(t *testing.T) {
	s, _ := openTestStore(t, Options{BufferPoolPages: 4})
	defer s.Close()
	s.Begin(1)
	var rids []RID
	for i := 0; i < 40; i++ { // ~40 pages of 8K records
		rid, err := s.Insert(1, make([]byte, 7000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	s.Commit(1)
	// After commit the first batch is evictable; a second batch of
	// inserts churns it out of the 4-frame pool.
	s.Begin(2)
	for i := 0; i < 40; i++ {
		if _, err := s.Insert(2, make([]byte, 7000)); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit(2)
	for _, rid := range rids {
		if _, err := s.Get(rid); err != nil {
			t.Fatalf("Get(%v) after eviction churn: %v", rid, err)
		}
	}
	st := s.Stats()
	if st.BufferMiss == 0 {
		t.Fatal("expected buffer misses with a 4-page pool")
	}
	if s.pool.Len() > 45 {
		t.Fatalf("pool grew unboundedly: %d frames", s.pool.Len())
	}
}

func TestStoreStats(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	s.Begin(1)
	s.Insert(1, []byte("x"))
	st := s.Stats()
	if st.ActiveTxns != 1 {
		t.Fatalf("ActiveTxns = %d, want 1", st.ActiveTxns)
	}
	s.Commit(1)
	st = s.Stats()
	if st.ActiveTxns != 0 {
		t.Fatalf("ActiveTxns after commit = %d, want 0", st.ActiveTxns)
	}
	if st.Pages == 0 {
		t.Fatal("Pages = 0 after an insert")
	}
}

// TestStoreTimesCheckpointsAndRecovery: reach_checkpoint_seconds holds
// one observation per attempt reach_checkpoint_total counts, an idle
// no-op being neither, and reach_recovery_seconds one per open.
func TestStoreTimesCheckpointsAndRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Begin(1)
	s.Insert(1, []byte("x"))
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second checkpoint finds nothing new
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ok := reg.Counter("reach_checkpoint_total", "", "result", "ok").Value()
	timed := reg.Histogram("reach_checkpoint_seconds", "").Count()
	if ok != 1 || timed != ok {
		t.Fatalf("checkpoints: %d ok, %d timed; want 1 and 1", ok, timed)
	}
	if n := reg.Histogram("reach_recovery_seconds", "").Count(); n != 2 {
		t.Fatalf("recoveries timed = %d, want one per open (2)", n)
	}
}

// TestStoreRandomCrashRecovery drives random committed/aborted/crashed
// transactions and verifies the recovered store matches the model.
func TestStoreRandomCrashRecovery(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, err := Open(dir, Options{BufferPoolPages: 8})
			if err != nil {
				t.Fatal(err)
			}
			model := map[RID][]byte{} // expected post-recovery contents
			// busy marks records touched by transactions left in
			// flight: the store requires the caller (normally the lock
			// manager) to keep conflicting transactions off them.
			busy := map[RID]bool{}
			txn := uint64(0)
			for round := 0; round < 30; round++ {
				txn++
				s.Begin(txn)
				pending := map[RID][]byte{}
				tombstone := map[RID]bool{}
				for op := 0; op < 10; op++ {
					data := make([]byte, 10+rng.Intn(300))
					rng.Read(data)
					rid, err := s.Insert(txn, data)
					if err != nil {
						t.Fatal(err)
					}
					pending[rid] = data
				}
				// Occasionally mutate a committed record.
				for rid := range model {
					if busy[rid] {
						continue
					}
					if rng.Intn(4) == 0 {
						data := make([]byte, 10+rng.Intn(300))
						rng.Read(data)
						nr, err := s.Update(txn, rid, data)
						if err != nil {
							t.Fatal(err)
						}
						tombstone[rid] = true
						pending[nr] = data
					}
					break
				}
				switch rng.Intn(3) {
				case 0: // commit
					if err := s.Commit(txn); err != nil {
						t.Fatal(err)
					}
					for rid := range tombstone {
						delete(model, rid)
					}
					for rid, d := range pending {
						model[rid] = d
					}
				case 1: // abort
					reloc, err := s.Abort(txn)
					if err != nil {
						t.Fatal(err)
					}
					remapped := map[RID][]byte{}
					for rid, d := range model {
						if nr, ok := reloc[rid]; ok {
							remapped[nr] = d
						} else {
							remapped[rid] = d
						}
					}
					model = remapped
				case 2: // leave in flight (lost at crash)
					s.wal.Sync()
					for rid := range tombstone {
						busy[rid] = true
					}
				}
			}
			// Crash.
			s.wal.Close()
			s.pager.f.Close()

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for rid, want := range model {
				got, err := s2.Get(rid)
				if err != nil {
					t.Fatalf("Get(%v): %v", rid, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Get(%v) mismatch after recovery", rid)
				}
			}
			// And nothing extra beyond in-flight leftovers: count live records.
			live := 0
			s2.Scan(func(rid RID, data []byte) {
				if want, ok := model[rid]; ok && bytes.Equal(want, data) {
					live++
				} else {
					t.Fatalf("unexpected surviving record at %v", rid)
				}
			})
			if live != len(model) {
				t.Fatalf("recovered %d records, want %d", live, len(model))
			}
		})
	}
}
