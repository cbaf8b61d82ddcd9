package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/fault"
)

// Per-layer costs of the durable path — log append, page fetch on a
// miss, restart — and the allocation ceilings and format checks that
// keep the path redo-only and copy-once.

const benchRecordBytes = 512 // plant-durable's payload size

func benchWAL(tb testing.TB) *WAL {
	tb.Helper()
	w, err := OpenWAL(filepath.Join(tb.TempDir(), "wal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	return w
}

// updateRecord is the redo-only update record the store logs for one
// 512-byte object.
func updateRecord() *LogRecord {
	return &LogRecord{Txn: 1, Kind: LogUpdate, RID: RID{Page: 1, Slot: 1}, After: make([]byte, benchRecordBytes)}
}

func BenchmarkWALAppend(b *testing.B) {
	w := benchWAL(b)
	rec := updateRecord()
	b.SetBytes(int64(frameLen(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// fillStore commits n records of benchRecordBytes into a store whose
// pool holds pages frames, returning their RIDs.
func fillStore(tb testing.TB, dir string, pages, n int) (*Store, []RID) {
	tb.Helper()
	s, err := Open(dir, Options{BufferPoolPages: pages})
	if err != nil {
		tb.Fatal(err)
	}
	rec := make([]byte, benchRecordBytes)
	rids := make([]RID, n)
	for done := 0; done < n; done += 256 {
		txn := uint64(done + 1)
		if err := s.Begin(txn); err != nil {
			tb.Fatal(err)
		}
		for i := done; i < min(done+256, n); i++ {
			if rids[i], err = s.Insert(txn, rec); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Commit(txn); err != nil {
			tb.Fatal(err)
		}
	}
	return s, rids
}

// BenchmarkUpdateMiss is one Begin + 512-byte Update + Commit against a
// working set ten times the buffer pool, so nearly every update faults
// its page in over a dirty victim.
func BenchmarkUpdateMiss(b *testing.B) {
	const pool = 16
	s, rids := fillStore(b, b.TempDir(), pool, 10*pool*(PageSize/(benchRecordBytes+slotSize)))
	defer s.Close()
	rec := make([]byte, benchRecordBytes)
	const stride = 257 // coprime with the record count
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := uint64(len(rids) + i + 1)
		if err := s.Begin(txn); err != nil {
			b.Fatal(err)
		}
		k := i * stride % len(rids)
		rid, err := s.Update(txn, rids[k], rec)
		if err != nil {
			b.Fatal(err)
		}
		rids[k] = rid
		if err := s.Commit(txn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetHit reads records from a store whose pool holds all of
// them: the buffer-hit read path.
func BenchmarkGetHit(b *testing.B) {
	s, rids := fillStore(b, b.TempDir(), 256, 1000)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(rids[i%len(rids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// crash drops the store's file handles without a checkpoint or a page
// flush: the next Open must recover everything from the log.
func crash(s *Store) {
	s.wal.Close()
	s.pager.f.Close()
}

// BenchmarkRecover reopens a store whose log holds 4 000 committed
// single-update transactions, reporting the recovery rate in log
// records per second.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	s, rids := fillStore(b, dir, 16, 2000)
	rec := make([]byte, benchRecordBytes)
	for i := 0; i < 4000; i++ {
		txn := uint64(len(rids) + i + 1)
		if err := s.Begin(txn); err != nil {
			b.Fatal(err)
		}
		k := i * 257 % len(rids)
		if _, err := s.Update(txn, rids[k], rec); err != nil {
			b.Fatal(err)
		}
		if err := s.Commit(txn); err != nil {
			b.Fatal(err)
		}
	}
	crash(s)
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{BufferPoolPages: 16})
		if err != nil {
			b.Fatal(err)
		}
		records += s.Stats().RecoveryRecordsScanned
		crash(s) // keep the log: every iteration recovers the same window
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

func TestDurablePathAllocationCeilings(t *testing.T) {
	w := benchWAL(t)
	rec := updateRecord()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WAL.Append: %.0f allocations, want 0", n)
	}

	// Pin misses cycling through 64 pages in a 4-frame pool: every miss
	// evicts a clean victim and reuses its frame.
	pager, err := OpenPager(filepath.Join(t.TempDir(), "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	for i := 0; i < 64; i++ {
		if _, err := pager.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(pager, 4)
	next := PageID(0)
	pin := func() {
		if _, err := bp.Pin(next); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(next, false, false)
		next = (next + 1) % 64
	}
	for i := 0; i < 64; i++ {
		pin()
	}
	misses := bp.misses.Value()
	if n := testing.AllocsPerRun(1000, pin); n != 0 {
		t.Errorf("BufferPool.Pin miss over an evictable victim: %.0f allocations, want 0", n)
	}
	if bp.misses.Value() == misses || bp.Len() != 4 {
		t.Fatalf("pool did not cycle through misses at capacity: %d frames", bp.Len())
	}

	s, rids := fillStore(t, t.TempDir(), 16, 8)
	defer s.Close()
	if err := s.Begin(1 << 20); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, benchRecordBytes)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := s.Update(1<<20, rids[0], data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Store.Update on a resident page: %.0f allocations, want 0", n)
	}
	if err := s.Commit(1 << 20); err != nil {
		t.Fatal(err)
	}

	// A whole storage transaction on a resident page reuses a resolved
	// transaction's state: its before-image arena, undo list and page set.
	txn := uint64(1<<20 + 1)
	if n := testing.AllocsPerRun(200, func() {
		if err := s.Begin(txn); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(txn, rids[1], data); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
		txn++
	}); n != 0 {
		t.Errorf("Store Begin + Update + Commit on a resident page: %.0f allocations, want 0", n)
	}
}

// TestReplayDecodeAllocationFree: decoding allocates per scan, never
// per record. scanFile is the one read of the log restart makes.
func TestReplayDecodeAllocationFree(t *testing.T) {
	scanAllocs := func(records int) float64 {
		w := benchWAL(t)
		for i := 0; i < records; i++ {
			if _, err := w.Append(updateRecord()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		// No collection during the count: the work one sets off (the
		// finalizers of what earlier tests left behind) allocates, and
		// under load those allocations landed in the count.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() {
			n := 0
			if err := scanFile(w.active().f, func(*LogRecord, int64) { n++ }); err != nil || n != records {
				t.Fatalf("scan saw %d records, err %v; want %d", n, err, records)
			}
		})
	}
	if few, many := scanAllocs(10), scanAllocs(2000); many != few {
		t.Errorf("scan allocations: %.0f for 10 records, %.0f for 2000; want the same", few, many)
	}
}

// TestUpdateLogsAfterImageOnly: an update record carries the new image
// and nothing else — no before-image, a frame within 40 bytes of it.
func TestUpdateLogsAfterImageOnly(t *testing.T) {
	s, rids := fillStore(t, t.TempDir(), 16, 1)
	defer s.Close()
	after := bytes.Repeat([]byte{7}, benchRecordBytes)
	if err := s.Begin(99); err != nil {
		t.Fatal(err)
	}
	base := s.wal.AppendedBytes()
	if _, err := s.Update(99, rids[0], after); err != nil {
		t.Fatal(err)
	}
	if grew := s.wal.AppendedBytes() - base; grew > uint64(len(after))+40 {
		t.Errorf("update frame is %d bytes for a %d-byte image, want ≤ image + 40", grew, len(after))
	}
	if err := s.Delete(99, rids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(99); err != nil {
		t.Fatal(err)
	}
	kinds := 0
	if err := s.wal.Records(func(r LogRecord) {
		if r.Txn != 99 {
			return
		}
		if r.Before != nil {
			t.Errorf("%v record carries a %d-byte before-image", r.Kind, len(r.Before))
		}
		if r.Kind == LogUpdate && !bytes.Equal(r.After, after) {
			t.Error("update record does not carry the after-image")
		}
		kinds++
	}); err != nil {
		t.Fatal(err)
	}
	if kinds != 4 { // begin, update, delete, commit
		t.Fatalf("found %d records of the transaction, want 4", kinds)
	}
}

// TestRecoverLogWithBeforeImages: a log in the older format, whose
// update and delete records carry before-images and whose aborts are
// compensated by system records, recovers to the state it describes.
func TestRecoverLogWithBeforeImages(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := RID{Page: 0, Slot: 0}, RID{Page: 0, Slot: 1}, RID{Page: 1, Slot: 0}
	for _, rec := range []LogRecord{
		{Txn: 1, Kind: LogBegin, RID: InvalidRID},
		{Txn: 1, Kind: LogInsert, RID: a, After: []byte("a1")},
		{Txn: 1, Kind: LogInsert, RID: b, After: []byte("b1")},
		{Txn: 1, Kind: LogCommit, RID: InvalidRID},
		{Txn: 2, Kind: LogBegin, RID: InvalidRID},
		{Txn: 2, Kind: LogUpdate, RID: a, Before: []byte("a1"), After: []byte("a2-longer")},
		{Txn: 2, Kind: LogDelete, RID: b, Before: []byte("b1")},
		{Txn: 2, Kind: LogCommit, RID: InvalidRID},
		// An aborted transaction: its undo logged as system records.
		{Txn: 3, Kind: LogBegin, RID: InvalidRID},
		{Txn: 3, Kind: LogUpdate, RID: a, Before: []byte("a2-longer"), After: []byte("lost")},
		{Txn: 3, Kind: LogInsert, RID: c, After: []byte("lost")},
		{Txn: sysTxn, Kind: LogDelete, RID: c},
		{Txn: sysTxn, Kind: LogUpdate, RID: a, After: []byte("a2-longer")},
		{Txn: 3, Kind: LogAbort, RID: InvalidRID},
		// In flight at the crash.
		{Txn: 4, Kind: LogBegin, RID: InvalidRID},
		{Txn: 4, Kind: LogUpdate, RID: a, Before: []byte("a2-longer"), After: []byte("uncommitted")},
	} {
		if _, err := w.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := map[RID]string{}
	if err := s.Scan(func(rid RID, data []byte) { got[rid] = string(data) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[a] != "a2-longer" {
		t.Fatalf("recovered %v, want only %v = a2-longer", got, a)
	}
}

// countingFS counts the bytes read from log segments and from the
// data file.
type countingFS struct {
	fault.FS
	log, data *atomic.Int64
}

type countingFile struct {
	fault.File
	read *atomic.Int64
}

func (fs countingFS) OpenFile(path string) (fault.File, error) {
	f, err := fs.FS.OpenFile(path)
	switch name := filepath.Base(path); {
	case err != nil:
		return f, err
	case strings.HasPrefix(name, "wal.log.0"):
		return countingFile{f, fs.log}, nil
	case name == "data.db":
		return countingFile{f, fs.data}, nil
	}
	return f, nil
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

func (f countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read.Add(int64(n))
	return n, err
}

// TestRecoveryReadsLogOnce: restart reads the replay window once, then
// only the after-images it redoes (and the frame heads between images
// it reads in one piece); it reads each data page at most once although
// the pool holds 4 of them and the log visits the pages out of order;
// and its redo index holds positions, not images.
func TestRecoveryReadsLogOnce(t *testing.T) {
	if size := unsafe.Sizeof(redoEntry{}) + 8; size > 64 { // entry + sort key
		t.Errorf("redo index costs %d bytes per record, want ≤ 64", size)
	}
	const n, image = 2000, 2048
	dir := t.TempDir()
	// The pool holds every page, so none reaches the data file before
	// the crash and restart redoes every record.
	s, err := Open(dir, Options{BufferPoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]RID, n)
	for i := range rids {
		if i%100 == 0 {
			if err := s.Begin(uint64(1 + i/100)); err != nil {
				t.Fatal(err)
			}
		}
		if rids[i], err = s.Insert(uint64(1+i/100), make([]byte, image)); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := s.Commit(uint64(1 + i/100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	updated := bytes.Repeat([]byte{'u'}, image)
	for i := 0; i < n; i++ {
		txn := uint64(1000 + i/100)
		if i%100 == 0 {
			if err := s.Begin(txn); err != nil {
				t.Fatal(err)
			}
		}
		k := i * 257 % n // strided: consecutive records on different pages
		if rids[k], err = s.Update(txn, rids[k], updated); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := s.Commit(txn); err != nil {
				t.Fatal(err)
			}
		}
	}
	var images int64
	records := 0
	pages := map[PageID]bool{}
	if err := s.wal.Records(func(r LogRecord) {
		if r.Kind == LogInsert || r.Kind == LogUpdate || r.Kind == LogDelete {
			images += int64(len(r.After))
			records++
			pages[r.RID.Page] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	_, logBytes, _, _ := s.wal.SegmentStats()
	crash(s)

	logRead, dataRead := new(atomic.Int64), new(atomic.Int64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, err := Open(dir, Options{BufferPoolPages: 4, FS: countingFS{fault.OS{}, logRead, dataRead}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().RecoveryRecordsReplayed; got != records {
		t.Fatalf("recovery replayed %d records, want all %d", got, records)
	}
	// Images of records logged back to back are read in one piece with
	// the frame heads between them: at most one head per record.
	heads := int64(records * (recHeadLen + 4))
	if got := logRead.Load(); got < logBytes+images || got > logBytes+images+heads {
		t.Errorf("recovery read %d log bytes, want the log (%d) + the redone after-images (%d) + at most %d of frame heads",
			got, logBytes, images, heads)
	}
	if got, limit := dataRead.Load(), int64(PageSize*len(pages)); got > limit {
		t.Errorf("recovery read %d data-file bytes, want ≤ %d: one read of each of the %d pages redone", got, limit, len(pages))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(images)/4 {
		t.Errorf("Open allocated %d bytes, want < %d: a quarter of the window's after-images", got, images/4)
	}
	t.Logf("log %d B + images %d B, read %d B; data read %d B over %d pages; Open allocated %d B",
		logBytes, images, logRead.Load(), dataRead.Load(), len(pages), after.TotalAlloc-before.TotalAlloc)
	if got, err := s2.Get(rids[0]); err != nil || !bytes.Equal(got, updated) {
		t.Fatalf("Get after recovery = %.8q…, %v", got, err)
	}
}

// TestPageUpdateTooLargeLeavesRecord: an update that cannot fit even
// after compaction fails without touching the page, so the caller can
// still read the old image to relocate it.
func TestPageUpdateTooLargeLeavesRecord(t *testing.T) {
	var p Page
	p.InitPage()
	fill := func(b byte, n int) uint16 {
		slot, err := p.Insert(bytes.Repeat([]byte{b}, n))
		if err != nil {
			t.Fatal(err)
		}
		return slot
	}
	a := fill('a', 100)
	hole := fill('b', 3000)
	c := fill('c', 3000)
	if err := p.Delete(hole); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(a, make([]byte, 6000)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("Update = %v, want ErrPageFull", err)
	}
	if got, _ := p.Get(a); !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 100)) {
		t.Fatalf("record a after failed update = %q…", got[:min(len(got), 8)])
	}
	if got, _ := p.Get(c); !bytes.Equal(got, bytes.Repeat([]byte{'c'}, 3000)) {
		t.Fatal("record c damaged by failed update")
	}
}
