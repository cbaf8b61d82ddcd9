package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
)

// logOrderRecover is the reference for page-ordered redo: the restart
// this package ran before, one pass over the replay window in log
// order that pins each committed record's page and applies the record
// unless the page LSN shows it. It recovers the image in dir on fs
// and returns the live records and the data file's page count.
func logOrderRecover(fs fault.FS, dir string) (map[RID]string, PageID, error) {
	w, err := OpenWALFS(fs, filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, 0, err
	}
	defer w.Close()
	pager, err := OpenPagerFS(fs, filepath.Join(dir, "data.db"))
	if err != nil {
		return nil, 0, err
	}
	defer pager.Close()
	pool := NewBufferPool(pager, 4)
	committed := map[uint64]bool{sysTxn: true}
	var recs []LogRecord
	if err := w.Records(func(r LogRecord) {
		if r.Kind == LogCommit {
			committed[r.Txn] = true
		}
		recs = append(recs, r)
	}); err != nil {
		return nil, 0, err
	}
	info, haveCkpt := w.LastCheckpoint()
	for i := range recs {
		rec := &recs[i]
		if !committed[rec.Txn] || haveCkpt && rec.LSN < info.RedoLSN {
			continue
		}
		switch rec.Kind {
		case LogInsert, LogUpdate, LogDelete:
			if err := redoRecord(pager, pool, rec); err != nil {
				return nil, 0, err
			}
		}
	}
	live := map[RID]string{}
	for id := PageID(0); id < pager.NumPages(); id++ {
		p, err := pool.Pin(id)
		if err != nil {
			return nil, 0, err
		}
		p.Slots(func(slot uint16, data []byte) { live[RID{Page: id, Slot: slot}] = string(data) })
		pool.Unpin(id, false, false)
	}
	return live, pager.NumPages(), nil
}

// redoRecord applies one committed record to its page unless the page
// LSN shows the page already reflects it.
func redoRecord(pager *Pager, pool *BufferPool, rec *LogRecord) error {
	if err := pager.EnsureAllocated(rec.RID.Page); err != nil {
		return err
	}
	p, err := pool.Pin(rec.RID.Page)
	if err != nil {
		return err
	}
	if p.LSN() >= rec.LSN {
		pool.Unpin(rec.RID.Page, false, false)
		return nil
	}
	err = applyRedo(p, rec)
	if err == nil {
		p.SetLSN(rec.LSN)
	}
	pool.Unpin(rec.RID.Page, err == nil, false)
	return err
}

// fuzzOps are the script's operations; an op byte picks one by its
// low three bits and the next byte is its argument.
const (
	fuzzInsert = iota
	fuzzUpdate
	fuzzDelete
	fuzzCommit
	fuzzAbort
	fuzzCheckpoint
	fuzzCrash
	fuzzInsertSmall
)

// FuzzRecoverMatchesLogOrder: a byte script drives one transaction at
// a time through inserts, updates that grow a record until it moves,
// deletes, aborts (whose undo is logged as system records) and fuzzy
// checkpoints, then crashes, optionally tearing the log's last bytes.
// Restart on the crash image must recover exactly what the log-order
// reference recovers on a copy of it, or both must fail.
func FuzzRecoverMatchesLogOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		fs := fault.NewShadowFS()
		opts := Options{FS: fs, BufferPoolPages: 4, WALSegmentBytes: 4 << 10}
		s, err := Open("db", opts)
		if err != nil {
			t.Fatal(err)
		}
		var rids, atBegin []RID // live records; rids when txn began
		var txn, lastTxn uint64
		begin := func() {
			if txn == 0 {
				lastTxn++
				txn = lastTxn
				if err := s.Begin(txn); err != nil {
					t.Fatal(err)
				}
				atBegin = slices.Clone(rids)
			}
		}
		record := func(i int, size byte, scale int) []byte {
			b := binary.LittleEndian.AppendUint32(nil, uint32(i))
			return append(b, strings.Repeat(string(rune('a'+i%26)), 8+int(size)*scale)...)
		}
		tear := 0
	script:
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op & 7 {
			case fuzzInsert, fuzzInsertSmall:
				scale := 12 // up to ~3 KiB: two or three fill a page
				if op&7 == fuzzInsertSmall {
					scale = 1
				}
				begin()
				rid, err := s.Insert(txn, record(i, arg, scale))
				if err != nil {
					t.Fatal(err)
				}
				rids = append(rids, rid)
			case fuzzUpdate:
				if len(rids) == 0 {
					continue
				}
				begin()
				k := int(op>>3) % len(rids)
				rid, err := s.Update(txn, rids[k], record(i, arg, 12))
				if err != nil {
					t.Fatal(err)
				}
				rids[k] = rid
			case fuzzDelete:
				if len(rids) == 0 {
					continue
				}
				begin()
				k := int(arg) % len(rids)
				if err := s.Delete(txn, rids[k]); err != nil {
					t.Fatal(err)
				}
				rids = slices.Delete(rids, k, k+1)
			case fuzzCommit:
				if txn != 0 {
					if err := s.Commit(txn); err != nil {
						t.Fatal(err)
					}
					txn = 0
				}
			case fuzzAbort:
				if txn != 0 {
					reloc, err := s.Abort(txn)
					if err != nil {
						t.Fatal(err)
					}
					rids = atBegin
					for k, rid := range rids {
						if nr, ok := reloc[rid]; ok {
							rids[k] = nr
						}
					}
					txn = 0
				}
			case fuzzCheckpoint:
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			case fuzzCrash:
				tear = int(arg)
				break script
			}
		}
		fs.Crash() // whatever was never synced is gone; s's handles go inert
		if tear > 0 {
			tearLastSegment(t, fs, tear)
		}

		want, wantPages, werr := logOrderRecover(fs.Clone(), "db")
		s2, err := Open("db", Options{FS: fs, BufferPoolPages: 4})
		if (err != nil) != (werr != nil) {
			t.Fatalf("restart: %v; log-order redo: %v", err, werr)
		}
		if err != nil {
			return
		}
		defer s2.Close()
		got := map[RID]string{}
		if err := s2.Scan(func(rid RID, data []byte) { got[rid] = string(data) }); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("restart recovered %s\nlog-order redo recovered %s", describe(got), describe(want))
		}
		if pages := s2.pager.NumPages(); pages != wantPages {
			t.Fatalf("restart left %d pages, log-order redo %d", pages, wantPages)
		}
	})
}

// tearLastSegment cuts n bytes off the end of the log's last segment,
// as a crash in the middle of writing its final frames would.
func tearLastSegment(t *testing.T, fs *fault.ShadowFS, n int) {
	seqs, err := listSegments(fs, "db/wal.log")
	if err != nil || len(seqs) == 0 {
		t.Fatalf("list segments: %v %v", seqs, err)
	}
	f, err := fs.OpenFile(segPath("db/wal.log", seqs[len(seqs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err == nil {
		err = f.Truncate(max(0, size-int64(n)))
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil && !errors.Is(err, fault.ErrCrashed) {
		t.Fatal(err)
	}
}

// describe renders recovered records compactly: RID, length and the
// record's stamp (the script position that wrote it).
func describe(live map[RID]string) string {
	rids := make([]RID, 0, len(live))
	for rid := range live {
		rids = append(rids, rid)
	}
	slices.SortFunc(rids, func(a, b RID) int {
		if a.Page != b.Page {
			return int(a.Page) - int(b.Page)
		}
		return int(a.Slot) - int(b.Slot)
	})
	var b strings.Builder
	for _, rid := range rids {
		rec := live[rid]
		stamp := -1
		if len(rec) >= 4 {
			stamp = int(binary.LittleEndian.Uint32([]byte(rec[:4])))
		}
		fmt.Fprintf(&b, " %v:%d@%d", rid, len(rec), stamp)
	}
	return "{" + b.String() + " }"
}
