package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/fault"
)

// walFrame builds a CRC-framed record with an arbitrary payload — the
// attacker's (or the crashed disk's) view of the codec: the CRC is
// always valid, so only the structural checks stand between the scan
// and a slice-bounds panic.
func walFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// payloadFor encodes the fixed record header plus explicit image
// length fields, letting tests lie about the lengths.
func payloadFor(beforeLen, afterLen uint32, before, after []byte) []byte {
	p := make([]byte, 0, recMinPayload+len(before)+len(after))
	p = binary.LittleEndian.AppendUint64(p, 7)  // lsn
	p = binary.LittleEndian.AppendUint64(p, 42) // txn
	p = append(p, byte(LogInsert))
	p = binary.LittleEndian.AppendUint32(p, 3) // page
	p = binary.LittleEndian.AppendUint16(p, 1) // slot
	p = binary.LittleEndian.AppendUint32(p, beforeLen)
	p = append(p, before...)
	p = binary.LittleEndian.AppendUint32(p, afterLen)
	p = append(p, after...)
	return p
}

// TestReadRecordRejectsStructuralCorruption pins the crash-frontier
// behavior for every malformed-but-CRC-valid shape that used to panic
// the recovery scan: short payloads, image lengths overrunning the
// payload, and an all-zero frame (the empty payload checksums to the
// zero CRC, so a zero-filled region of a torn log parses as a valid
// frame header).
func TestReadRecordRejectsStructuralCorruption(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"zero-frame", make([]byte, 64)},
		{"empty-payload", walFrame(nil)},
		{"payload-below-fixed-header", walFrame(make([]byte, recFixedLen-1))},
		{"payload-at-fixed-header-no-lengths", walFrame(make([]byte, recFixedLen))},
		{"payload-one-short-of-minimum", walFrame(make([]byte, recMinPayload-1))},
		{"before-length-overruns", walFrame(payloadFor(1<<30, 0, nil, nil))},
		{"before-length-4gib-overflow", walFrame(payloadFor(0xFFFFFFFF, 0, nil, nil))},
		{"after-length-overruns", walFrame(payloadFor(0, 9999, nil, []byte("short")))},
		{"lengths-disagree-with-payload", walFrame(payloadFor(2, 2, []byte("ab"), []byte("cdEXTRA")))},
		{"truncated-header", []byte{0xde, 0xad, 0xbe}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := recordReader{r: bytes.NewReader(tc.data)}
			var rec LogRecord
			_, err := d.next(&rec)
			if err == nil {
				t.Fatal("decoder accepted structurally corrupt frame")
			}
			if !errors.Is(err, errBadChecksum) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v; want errBadChecksum or EOF so the scan treats it as the crash frontier", err)
			}
		})
	}
}

// TestWALCorruptTailRecoversCleanly is the end-to-end regression: a
// log whose tail is structurally corrupt (not just torn) must open,
// surface exactly the valid prefix, and accept new appends.
func TestWALCorruptTailRecoversCleanly(t *testing.T) {
	tails := map[string][]byte{
		"zero-fill":       make([]byte, 128),
		"short-payload":   walFrame(make([]byte, 5)),
		"overlong-before": walFrame(payloadFor(1<<31, 0, nil, nil)),
		"overlong-after":  walFrame(payloadFor(0, 1<<31, nil, nil)),
		"truncated-frame": walFrame(payloadFor(3, 0, []byte("abc"), nil))[:12],
		"bad-crc":         func() []byte { f := walFrame(payloadFor(0, 3, nil, []byte("xyz"))); f[10] ^= 0xFF; return f }(),
		"garbage":         {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05},
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			fs := fault.NewShadowFS()
			w, err := OpenWALFS(fs, "wal.log")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := w.Append(&LogRecord{Txn: 1, Kind: LogInsert, RID: RID{Page: 0, Slot: uint16(i)}, After: []byte("abc")}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// Append the corrupt tail directly to the file.
			f, err := fs.OpenFile("wal.log")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			w2, err := OpenWALFS(fs, "wal.log")
			if err != nil {
				t.Fatalf("reopen with %s tail: %v", name, err)
			}
			defer w2.Close()
			n := 0
			if err := w2.Records(func(LogRecord) { n++ }); err != nil {
				t.Fatal(err)
			}
			if n != 4 {
				t.Fatalf("recovered %d records, want the 4-record valid prefix", n)
			}
			if _, err := w2.Append(&LogRecord{Txn: 2, Kind: LogCommit, RID: InvalidRID}); err != nil {
				t.Fatalf("append past truncated corruption: %v", err)
			}
			if err := w2.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzReadRecord fuzzes the WAL record codec: arbitrary bytes must
// never panic the reader, and every frame the reader accepts must
// re-encode to the bytes it was decoded from (the codec is its own
// round-trip oracle).
func FuzzReadRecord(f *testing.F) {
	// Seed with valid frames of each kind and the structural edge
	// cases the matrix cannot synthesize.
	for _, rec := range []*LogRecord{
		{LSN: 1, Txn: 1, Kind: LogBegin, RID: InvalidRID},
		{LSN: 2, Txn: 1, Kind: LogInsert, RID: RID{Page: 0, Slot: 0}, After: []byte("payload")},
		{LSN: 3, Txn: 1, Kind: LogUpdate, RID: RID{Page: 9, Slot: 4}, Before: []byte("old"), After: []byte("new")},
		{LSN: 4, Txn: 1, Kind: LogDelete, RID: RID{Page: 2, Slot: 7}, Before: []byte("gone")},
		{LSN: 5, Txn: 1, Kind: LogCommit, RID: InvalidRID},
	} {
		f.Add(encodeRecord(rec))
	}
	f.Add(make([]byte, 64))
	f.Add(walFrame(payloadFor(0xFFFFFFFF, 0xFFFFFFFF, nil, nil)))
	f.Add(walFrame(make([]byte, recMinPayload-1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := recordReader{r: bytes.NewReader(data)}
		var rec LogRecord
		n, err := d.next(&rec)
		if err != nil {
			return
		}
		if n < 8+recMinPayload || n > int64(len(data)) {
			t.Fatalf("accepted frame length %d out of bounds (input %d)", n, len(data))
		}
		re := encodeRecord(&rec)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round trip mismatch:\n in:  %x\n out: %x", data[:n], re)
		}
	})
}
