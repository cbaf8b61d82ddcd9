package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// Records calls fn for every valid record in the replay window (the
// segments at or after the last completed checkpoint's start), in LSN
// order. Each record's images are fn's own copies.
func (w *WAL) Records(fn func(LogRecord)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return err
	}
	for _, seg := range w.segs[w.replayFrom:] {
		if err := scanFile(seg.f, func(rec *LogRecord, _ int64) {
			r := *rec
			r.Before, r.After = bytes.Clone(rec.Before), bytes.Clone(rec.After)
			fn(r)
		}); err != nil {
			return err
		}
	}
	return nil
}

func openTestWAL(t *testing.T) (*WAL, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	return w, path
}

func TestWALAppendAssignsMonotoneLSNs(t *testing.T) {
	w, _ := openTestWAL(t)
	defer w.Close()
	var prev uint64
	for i := 0; i < 10; i++ {
		lsn, err := w.Append(&LogRecord{Txn: 1, Kind: LogInsert, RID: RID{Page: 0, Slot: uint16(i)}, After: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= prev {
			t.Fatalf("LSN %d not > previous %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestWALRoundTrip(t *testing.T) {
	w, path := openTestWAL(t)
	recs := []LogRecord{
		{Txn: 7, Kind: LogBegin, RID: InvalidRID},
		{Txn: 7, Kind: LogInsert, RID: RID{Page: 3, Slot: 1}, After: []byte("after-image")},
		{Txn: 7, Kind: LogUpdate, RID: RID{Page: 3, Slot: 1}, Before: []byte("after-image"), After: []byte("newer")},
		{Txn: 7, Kind: LogDelete, RID: RID{Page: 3, Slot: 1}, Before: []byte("newer")},
		{Txn: 7, Kind: LogCommit, RID: InvalidRID},
	}
	for i := range recs {
		if _, err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var got []LogRecord
	if err := w2.Records(func(r LogRecord) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		want := recs[i]
		if r.Txn != want.Txn || r.Kind != want.Kind || r.RID != want.RID ||
			!bytes.Equal(r.Before, want.Before) || !bytes.Equal(r.After, want.After) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	if w2.NextLSN() != got[len(got)-1].LSN+1 {
		t.Fatalf("NextLSN = %d, want %d", w2.NextLSN(), got[len(got)-1].LSN+1)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	w, path := openTestWAL(t)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(&LogRecord{Txn: 1, Kind: LogInsert, RID: RID{Page: 0, Slot: uint16(i)}, After: []byte("abc")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the active segment by appending garbage (a torn final
	// write).
	f, err := os.OpenFile(segPath(path, 1), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	n := 0
	if err := w2.Records(func(LogRecord) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("after torn tail: %d records, want 5", n)
	}
	// Appending must still work after truncation of the tail.
	if _, err := w2.Append(&LogRecord{Txn: 2, Kind: LogCommit, RID: InvalidRID}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	n = 0
	if err := w2.Records(func(LogRecord) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("after append past torn tail: %d records, want 6", n)
	}
}

func TestWALCorruptMiddleStopsScan(t *testing.T) {
	w, path := openTestWAL(t)
	for i := 0; i < 3; i++ {
		if _, err := w.Append(&LogRecord{Txn: 1, Kind: LogInsert, RID: RID{Page: 0, Slot: uint16(i)}, After: []byte("abc")}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Flip a byte inside the second record's payload.
	data, err := os.ReadFile(segPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segPath(path, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	n := 0
	w2.Records(func(LogRecord) { n++ })
	if n >= 3 {
		t.Fatalf("scan read %d records past corruption, want < 3", n)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	// Tiny segments: every record is ~40 bytes, so a 128-byte cap
	// rotates every few appends.
	w, err := OpenWALSegmented(fault.OS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var last uint64
	for i := 0; i < 40; i++ {
		last, err = w.Append(&LogRecord{Txn: 1, Kind: LogInsert, RID: InvalidRID, After: []byte("payload-payload")})
		if err != nil {
			t.Fatal(err)
		}
	}
	segs, _, rotations, _ := w.SegmentStats()
	if segs < 3 || rotations == 0 {
		t.Fatalf("expected rotation: segs=%d rotations=%d", segs, rotations)
	}
	n := 0
	var lastSeen uint64
	if err := w.Records(func(r LogRecord) { n++; lastSeen = r.LSN }); err != nil {
		t.Fatal(err)
	}
	if n != 40 || lastSeen != last {
		t.Fatalf("scan across segments: n=%d lastSeen=%d want 40/%d", n, lastSeen, last)
	}
}

func TestWALCompleteCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWALSegmented(fault.OS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := w.Append(&LogRecord{Txn: 1, Kind: LogInsert, RID: InvalidRID, After: []byte("payload-payload")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint covering everything so far: only post-rotation
	// segments survive.
	redo, err := w.Append(&LogRecord{Txn: sysTxn, Kind: LogCkptBegin, RID: InvalidRID, After: encodeATT(nil)})
	if err != nil {
		t.Fatal(err)
	}
	end, err := w.Append(&LogRecord{Txn: sysTxn, Kind: LogCkptEnd, RID: InvalidRID,
		After: encodeCkptEnd(CheckpointInfo{RedoLSN: redo, BeginLSN: redo})})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	before, _, _, _ := w.SegmentStats()
	if err := w.CompleteCheckpoint(CheckpointInfo{RedoLSN: redo, BeginLSN: redo, EndLSN: end}); err != nil {
		t.Fatal(err)
	}
	after, _, _, prunes := w.SegmentStats()
	if after >= before || prunes == 0 {
		t.Fatalf("prune did not shrink the chain: before=%d after=%d prunes=%d", before, after, prunes)
	}
	last := w.NextLSN() - 1
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the master bounds the scan, LSNs stay monotone, and the
	// checkpoint is rediscovered.
	w2, err := OpenWALSegmented(fault.OS{}, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NextLSN() != last+1 {
		t.Fatalf("NextLSN after reopen = %d, want %d", w2.NextLSN(), last+1)
	}
	info, ok := w2.LastCheckpoint()
	if !ok || info.RedoLSN != redo || info.EndLSN != end {
		t.Fatalf("LastCheckpoint = %+v/%v, want redo=%d end=%d", info, ok, redo, end)
	}
	n := 0
	minLSN := uint64(0)
	if err := w2.Records(func(r LogRecord) {
		n++
		if minLSN == 0 || r.LSN < minLSN {
			minLSN = r.LSN
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 || minLSN < redo {
		t.Fatalf("replay window not bounded: n=%d minLSN=%d redo=%d", n, minLSN, redo)
	}
	lsn, err := w2.Append(&LogRecord{Txn: 2, Kind: LogBegin, RID: InvalidRID})
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= last {
		t.Fatalf("post-reopen LSN %d not > %d", lsn, last)
	}
}

func TestLogKindString(t *testing.T) {
	kinds := []LogKind{LogBegin, LogInsert, LogUpdate, LogDelete, LogCommit, LogAbort, LogCheckpoint, LogCkptBegin, LogCkptEnd}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("LogKind %d String() = %q (empty or duplicate)", k, s)
		}
		seen[s] = true
	}
	if LogKind(99).String() == "" {
		t.Fatal("unknown LogKind has empty String()")
	}
}
