package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// LogKind discriminates write-ahead-log records.
type LogKind uint8

// Log record kinds.
const (
	LogBegin LogKind = iota + 1
	LogInsert
	LogUpdate
	LogDelete
	LogCommit
	LogAbort
	LogCheckpoint
	LogCkptBegin
	LogCkptEnd
)

// String implements fmt.Stringer.
func (k LogKind) String() string {
	switch k {
	case LogBegin:
		return "BEGIN"
	case LogInsert:
		return "INSERT"
	case LogUpdate:
		return "UPDATE"
	case LogDelete:
		return "DELETE"
	case LogCommit:
		return "COMMIT"
	case LogAbort:
		return "ABORT"
	case LogCheckpoint:
		return "CHECKPOINT"
	case LogCkptBegin:
		return "CKPT-BEGIN"
	case LogCkptEnd:
		return "CKPT-END"
	}
	return fmt.Sprintf("LogKind(%d)", uint8(k))
}

// LogRecord is one entry in the write-ahead log.
//
// The store logs redo information only: Insert and Update carry
// After; Delete, Commit, Abort and Begin carry no image. CkptBegin
// carries the active-transaction table in After; CkptEnd carries
// redoLSN+beginLSN in After. Before is still framed (older logs carry
// it on Update and Delete) but recovery never reads it.
type LogRecord struct {
	LSN    uint64
	Txn    uint64
	Kind   LogKind
	RID    RID
	Before []byte
	After  []byte
}

// CheckpointInfo identifies a completed fuzzy checkpoint: recovery
// redo may start at RedoLSN, and every segment whose records all
// precede it is garbage.
type CheckpointInfo struct {
	RedoLSN  uint64
	BeginLSN uint64
	EndLSN   uint64
}

// DefaultSegmentBytes is the segment-rotation threshold when the
// caller does not choose one.
const DefaultSegmentBytes int64 = 4 << 20

// walSegment is one size-capped file of the log. The last element of
// WAL.segs is the active (append) segment; earlier ones are sealed
// and fully fsynced (rotation seals before switching).
type walSegment struct {
	seq      uint64
	path     string
	f        fault.File
	firstLSN uint64 // 0 while the segment holds no records
	lastLSN  uint64
	size     int64 // bytes of valid records (buffered bytes included for the active segment)
}

// WAL is an append-only write-ahead log with CRC-protected records,
// split across ordered size-capped segment files <path>.<seq>. A
// side master file <path>.ckpt points recovery at the last completed
// checkpoint so the scan skips fully covered segments.
type WAL struct {
	mu       sync.Mutex
	fs       fault.FS
	path     string // base path; segments live beside it
	segBytes int64
	segs     []*walSegment // ascending seq; last is active
	w        *bufio.Writer // over the active segment

	// replayFrom is the index into segs where the replay window starts:
	// segments before it are fully covered by the last completed
	// checkpoint (per the master record) and awaiting pruning.
	replayFrom int
	// stale holds paths of covered segments discovered at open that
	// were never handed a live handle (resurrected after a crash lost
	// their unlink); the next completed checkpoint removes them.
	stale []string

	lastCkpt CheckpointInfo
	haveCkpt bool
	appended uint64 // total record bytes appended since open (monotone)

	// Recovery-window accounting captured at open, for Stats.
	openScanned int
	openSkipped int

	// ioErr latches the first append failure. A failed record write
	// leaves an undefined prefix in the buffered stream, so appending
	// anything after it could interleave a fresh frame with the torn
	// one; the log refuses further traffic instead.
	ioErr error
	// Append's framing scratch, under mu.
	head     [recHeadLen]byte
	afterLen [4]byte

	// Group-commit state, guarded by gmu — a separate mutex so joining
	// a batch never waits behind the leader's I/O. Lock order: gmu is
	// released before w.mu is taken (SyncTo), and w.mu holders may take
	// gmu (Sync, rotation) because nobody waits for w.mu while holding
	// gmu.
	gmu     sync.Mutex
	nextLSN uint64     // LSN the next append will assign (under gmu: see NextLSN)
	durable uint64     // highest LSN known forced to stable storage
	leading bool       // a SyncTo leader is performing fsync rounds
	pending *syncBatch // followers parked for the leader's next round

	// syncs counts fsyncs so Stats can report the effect of group
	// commit; fsyncDur times the stable-storage half of a Sync. All
	// standalone by default and rebound by Instrument.
	syncs    *obs.Counter
	fsyncDur *obs.Histogram

	// Group-commit accounting: requests satisfied, follower batches
	// released, and the largest batch seen (average batch size is
	// groupReqs/syncs).
	groupReqs    *obs.Counter
	groupBatches *obs.Counter
	batchHigh    *obs.Gauge

	// Segment accounting.
	rotations *obs.Counter
	prunes    *obs.Counter
	segGauge  *obs.Gauge
}

// syncBatch parks SyncTo followers while a leader runs fsync rounds.
// done is closed when the batch's fate is known; err is the batch
// outcome and must only be read after done is closed.
type syncBatch struct {
	done   chan struct{}
	err    error
	maxLSN uint64
	n      int64
}

// OpenWAL opens (creating if necessary) the log at path on the real
// filesystem and positions the next LSN after the last valid record.
func OpenWAL(path string) (*WAL, error) {
	return OpenWALFS(fault.OS{}, path)
}

// OpenWALFS opens the log at path through fs with the default segment
// size.
func OpenWALFS(fs fault.FS, path string) (*WAL, error) {
	return OpenWALSegmented(fs, path, DefaultSegmentBytes)
}

// segPath names segment seq of the log at base.
func segPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%08d", base, seq)
}

// masterPath names the checkpoint master record beside the log.
func masterPath(base string) string { return base + ".ckpt" }

// listSegments returns the (seq, path) pairs of log segments beside
// base, ascending by seq.
func listSegments(fs fault.FS, base string) ([]uint64, error) {
	dir := filepath.Dir(base)
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list wal segments: %w", err)
	}
	prefix := filepath.Base(base) + "."
	var seqs []uint64
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		seq, err := strconv.ParseUint(name[len(prefix):], 10, 64)
		if err != nil || seq == 0 {
			continue // .ckpt master or unrelated file
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenWALSegmented opens the segmented log at base path through fs,
// rotating the active segment once it exceeds segBytes. Recovery
// reads the master record first: segments fully covered by the last
// completed checkpoint are skipped (and removed by the next
// checkpoint), bounding the scan.
func OpenWALSegmented(fs fault.FS, path string, segBytes int64) (*WAL, error) {
	return openWAL(fs, path, segBytes, nil)
}

// openWAL is OpenWALSegmented where visit, when non-nil, sees every
// valid record of the replay window during the open-time tail scan,
// with the index of its segment in the window and the offset just past
// its frame (the record and its images alias the scan buffer and are
// valid only during the call). The store builds its redo index there,
// so restart reads the window once; redo reads an after-image back
// with readImage at end-len(After).
func openWAL(fs fault.FS, path string, segBytes int64, visit func(rec *LogRecord, seg int, end int64)) (*WAL, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	w := &WAL{
		fs: fs, path: path, segBytes: segBytes,
		syncs:        new(obs.Counter),
		fsyncDur:     new(obs.Histogram),
		groupReqs:    new(obs.Counter),
		groupBatches: new(obs.Counter),
		batchHigh:    new(obs.Gauge),
		rotations:    new(obs.Counter),
		prunes:       new(obs.Counter),
		segGauge:     new(obs.Gauge),
	}
	w.nextLSN = 1
	seqs, err := listSegments(fs, path)
	if err != nil {
		return nil, err
	}
	master, haveMaster := readMaster(fs, masterPath(path))
	// The master only helps if the segment it points at still exists;
	// otherwise fall back to a full scan (always correct, page LSNs
	// make redo idempotent).
	if haveMaster {
		found := false
		for _, seq := range seqs {
			if seq == master.startSeq {
				found = true
				break
			}
		}
		if !found {
			haveMaster = false
		}
	}
	if len(seqs) == 0 {
		seqs = []uint64{1}
	}
	fail := func(err error) (*WAL, error) {
		for _, s := range w.segs {
			s.f.Close()
		}
		return nil, err
	}
	for _, seq := range seqs {
		p := segPath(path, seq)
		if haveMaster && seq < master.startSeq {
			// Fully covered by the checkpoint: do not scan, do not hold
			// a handle; the next completed checkpoint unlinks it.
			w.stale = append(w.stale, p)
			w.openSkipped++
			continue
		}
		f, err := fs.OpenFile(p)
		if err != nil {
			return fail(fmt.Errorf("storage: open wal segment: %w", err))
		}
		w.segs = append(w.segs, &walSegment{seq: seq, path: p, f: f})
	}
	// Scan the retained chain in order. A torn or corrupt record is the
	// crash frontier: everything after it (in this segment and any
	// later one) was never acknowledged and is discarded.
	for i := 0; i < len(w.segs); i++ {
		s := w.segs[i]
		validEnd := int64(0)
		err := scanFile(s.f, func(rec *LogRecord, end int64) {
			if s.firstLSN == 0 {
				s.firstLSN = rec.LSN
			}
			s.lastLSN = rec.LSN
			validEnd = end
			w.nextLSN = rec.LSN + 1
			if rec.Kind == LogCkptEnd {
				if info, ok := decodeCkptEnd(rec.After); ok {
					info.EndLSN = rec.LSN
					w.lastCkpt, w.haveCkpt = info, true
				}
			}
			if visit != nil {
				visit(rec, i, end)
			}
		})
		if err != nil {
			return fail(err)
		}
		s.size = validEnd
		w.openScanned++
		if sz, err := s.f.Size(); err == nil && validEnd < sz {
			if err := s.f.Truncate(validEnd); err != nil {
				return fail(fmt.Errorf("storage: truncate torn wal tail: %w", err))
			}
			// Segments past the frontier are unreachable in normal
			// operation (rotation seals before creating a successor),
			// but a resurrected pruned file could sit there; drop them.
			for _, t := range w.segs[i+1:] {
				t.f.Close()
				w.stale = append(w.stale, t.path)
			}
			w.segs = w.segs[:i+1]
			break
		}
	}
	if haveMaster && master.endLSN >= w.nextLSN {
		// Insurance against LSN reuse if the scan saw less than the
		// master promises durable.
		w.nextLSN = master.endLSN + 1
	}
	act := w.active()
	if _, err := act.f.Seek(act.size, io.SeekStart); err != nil {
		return fail(err)
	}
	w.w = bufio.NewWriterSize(act.f, 1<<16)
	w.durable = w.nextLSN - 1 // everything scanned from disk is stable
	w.updateSegMetricsLocked()
	return w, nil
}

// active returns the append segment; the caller holds w.mu (or has
// exclusive access during open).
func (w *WAL) active() *walSegment { return w.segs[len(w.segs)-1] }

// Instrument rebinds the log's counters into reg. Call it before the
// log sees traffic.
func (w *WAL) Instrument(reg *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncs = reg.Counter("reach_wal_syncs_total", "WAL fsyncs issued.")
	w.fsyncDur = reg.Histogram("reach_wal_fsync_seconds",
		"WAL fsync (force to stable storage) latency during Sync.")
	w.groupReqs = reg.Counter("reach_wal_group_commit_requests_total",
		"SyncTo requests satisfied (group-commit committers; divide by reach_wal_syncs_total for the mean batch size).")
	w.groupBatches = reg.Counter("reach_wal_group_commit_batches_total",
		"Follower batches released by a group-commit leader.")
	w.batchHigh = reg.Gauge("reach_wal_group_commit_batch_highwater",
		"Largest follower batch released by one group-commit round.")
	w.rotations = reg.Counter("reach_wal_segment_rotations_total",
		"WAL segment rotations (active segment sealed, successor created).")
	w.prunes = reg.Counter("reach_wal_segment_prunes_total",
		"WAL segments deleted because a completed checkpoint covered them.")
	w.segGauge = reg.Gauge("reach_wal_segments", "Live WAL segment files.")
	w.updateSegMetricsLocked()
}

func (w *WAL) updateSegMetricsLocked() {
	w.segGauge.Set(int64(len(w.segs)))
}

// Append writes rec to the log, assigning and returning its LSN. The
// record is buffered; call Sync to force it to stable storage. When
// the active segment is over the rotation threshold it is sealed
// (flushed + fsynced) and a successor created before the append. The
// frame goes into the buffered writer piece by piece: the images are
// copied once and nothing is allocated.
func (w *WAL) Append(rec *LogRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ioErr != nil {
		return 0, fmt.Errorf("storage: wal damaged by earlier append failure: %w", w.ioErr)
	}
	if act := w.active(); act.size >= w.segBytes && act.firstLSN != 0 {
		if err := w.rotateLocked(); err != nil {
			return 0, fmt.Errorf("storage: wal rotate: %w", err)
		}
	}
	w.gmu.Lock()
	rec.LSN = w.nextLSN
	w.nextLSN++
	w.gmu.Unlock()
	if fp := fault.Hit(fault.SiteWALAppend); fp != nil {
		if frame := encodeRecord(rec); fp.Torn >= 0 && fp.Torn < len(frame) {
			// A torn append leaves a partial frame in the stream; the
			// log is damaged from here on.
			_, _ = w.w.Write(frame[:fp.Torn])
		}
		w.ioErr = fp.Err
		return 0, fmt.Errorf("storage: wal append: %w", fp.Err)
	}
	frameHead(rec, &w.head, &w.afterLen)
	for _, piece := range [...][]byte{w.head[:], rec.Before, w.afterLen[:], rec.After} {
		if _, err := w.w.Write(piece); err != nil {
			w.ioErr = err
			return 0, fmt.Errorf("storage: wal append: %w", err)
		}
	}
	n := int64(frameLen(rec))
	act := w.active()
	if act.firstLSN == 0 {
		act.firstLSN = rec.LSN
	}
	act.lastLSN = rec.LSN
	act.size += n
	w.appended += uint64(n)
	return rec.LSN, nil
}

// Rotate seals the active segment and installs an empty successor; a
// no-op when the active segment holds no records yet. The fuzzy
// checkpoint rotates first so everything logged before it sits in
// sealed, prunable segments.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ioErr != nil {
		return fmt.Errorf("storage: wal damaged by earlier append failure: %w", w.ioErr)
	}
	if w.active().firstLSN == 0 {
		return nil
	}
	return w.rotateLocked()
}

// rotateLocked seals the active segment (flush + fsync, so every
// sealed segment is fully durable and torn tails can only be in the
// last segment) and installs an empty successor. A failure leaves the
// old segment active and the log undamaged — the append that
// triggered the rotation fails without consuming an LSN.
func (w *WAL) rotateLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	act := w.active()
	if err := w.fsync(act.f); err != nil {
		return err
	}
	w.advanceDurable(act.lastLSN)
	if fp := fault.Hit(fault.SiteWALRotate); fp != nil {
		return fp.Err
	}
	seq := act.seq + 1
	p := segPath(w.path, seq)
	f, err := w.fs.OpenFile(p)
	if err != nil {
		return err
	}
	// A resurrected pruned file could leave stale bytes under this
	// name; start the segment empty.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	w.segs = append(w.segs, &walSegment{seq: seq, path: p, f: f})
	w.w.Reset(f)
	w.rotations.Inc()
	w.updateSegMetricsLocked()
	return nil
}

// Sync flushes buffered records and forces the log to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	covered := w.NextLSN() - 1
	err := w.syncLocked()
	w.mu.Unlock()
	if err == nil {
		w.advanceDurable(covered)
	}
	return err
}

// advanceDurable raises the durable frontier to covered (monotone).
func (w *WAL) advanceDurable(covered uint64) {
	w.gmu.Lock()
	if covered > w.durable {
		w.durable = covered
	}
	w.gmu.Unlock()
}

// SyncTo forces the log through at least lsn to stable storage. It is
// the group-commit entry point: concurrent callers elect one leader
// that performs the buffered flush + fsync and releases every caller
// whose LSN the round covered, amortizing one fsync across the batch.
// Callers that arrive while a round is in flight park on a pending
// batch served by the leader's next round. An error from a round is
// returned to every caller it might have covered: the batch cannot
// tell whose records reached stable storage, so all of them must treat
// the outcome as in-doubt — exactly the contract Store.Commit needs.
func (w *WAL) SyncTo(lsn uint64) error {
	defer w.groupReqs.Inc()
	w.gmu.Lock()
	if lsn <= w.durable {
		// A previous round already forced this LSN; free ride.
		w.gmu.Unlock()
		return nil
	}
	if w.leading {
		// A leader is mid-round: join (or form) the pending batch and
		// park until a round covers us.
		b := w.pending
		if b == nil {
			b = &syncBatch{done: make(chan struct{})}
			w.pending = b
		}
		if lsn > b.maxLSN {
			b.maxLSN = lsn
		}
		b.n++
		w.gmu.Unlock()
		<-b.done
		return b.err
	}
	w.leading = true
	var firstErr error
	for first := true; ; first = false {
		w.gmu.Unlock()
		// Let runnable committers append their records and park in the
		// pending batch before this round captures its frontier: without
		// the yield a fresh leader fsyncs alone while the previous
		// round's followers are still waiting for the scheduler, and the
		// batch size collapses to 1-2 under a single-CPU convoy. On an
		// uncontended log this is one scheduler call.
		runtime.Gosched()
		w.mu.Lock()
		covered := w.NextLSN() - 1
		err := w.flushLocked()
		// Capture the active handle under w.mu: a rotation after the
		// flush would retarget w.w, but the flushed records are in this
		// handle (and rotation fsyncs it before switching anyway).
		f := w.active().f
		w.mu.Unlock()
		if err == nil {
			// The fsync runs off w.mu: committers keep appending (and
			// joining the pending batch) while the disk works, which is
			// what lets one round absorb a whole convoy.
			err = w.fsync(f)
		}
		w.gmu.Lock()
		if err == nil && covered > w.durable {
			w.durable = covered
		}
		if first {
			// The first round always covers the leader's own LSN (its
			// record was appended before the call); later rounds run on
			// behalf of followers and do not change the leader's fate.
			firstErr = err
		}
		if b := w.pending; b != nil {
			switch {
			case b.maxLSN <= w.durable:
				// The round (or an earlier one) covered the whole batch.
				w.pending = nil
				w.groupBatches.Inc()
				w.batchHigh.SetMax(b.n)
				close(b.done)
			case err != nil:
				// The round failed with follower records possibly in the
				// failed flush: every follower goes in-doubt with it.
				w.pending = nil
				w.groupBatches.Inc()
				w.batchHigh.SetMax(b.n)
				b.err = err
				close(b.done)
			}
			// Otherwise followers joined after covered was captured; run
			// another round for them.
		}
		if w.pending == nil {
			w.leading = false
			w.gmu.Unlock()
			return firstErr
		}
	}
}

func (w *WAL) syncLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	return w.fsync(w.active().f)
}

// flushLocked drains the buffered writer into the active segment; the
// caller holds w.mu.
func (w *WAL) flushLocked() error {
	if w.ioErr != nil {
		return fmt.Errorf("storage: wal damaged by earlier append failure: %w", w.ioErr)
	}
	if fp := fault.Hit(fault.SiteWALFlush); fp != nil {
		return fmt.Errorf("storage: wal flush: %w", fp.Err)
	}
	return w.w.Flush()
}

// fsync forces f to stable storage. It needs no lock: the caller must
// already have flushed the records it cares about, and the file handle
// tolerates a concurrent flush — any extra bytes the sync happens to
// cover become durable early, which is harmless.
func (w *WAL) fsync(f fault.File) error {
	if fp := fault.Hit(fault.SiteWALSync); fp != nil {
		return fmt.Errorf("storage: wal fsync: %w", fp.Err)
	}
	stopSync := w.fsyncDur.Time()
	err := f.Sync()
	stopSync()
	if err != nil {
		return err
	}
	w.syncs.Inc()
	return nil
}

// Syncs reports the number of fsyncs issued, for the group-commit
// benchmarks.
func (w *WAL) Syncs() uint64 {
	return w.syncs.Value()
}

// GroupCommitStats reports the group-commit counters: force
// requests, follower batches released by a leader, and the largest
// such batch. requests divided by Syncs() is the amortization factor.
func (w *WAL) GroupCommitStats() (requests, batches uint64, highwater int64) {
	return w.groupReqs.Value(), w.groupBatches.Value(), w.batchHigh.Value()
}

// NextLSN reports the LSN the next appended record will receive. It
// takes only gmu, never w.mu, so paths that already hold w.mu (Sync,
// a group-commit round) can read it.
func (w *WAL) NextLSN() uint64 {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	return w.nextLSN
}

// AppendedBytes reports the total record bytes appended since open —
// the background checkpointer's byte trigger.
func (w *WAL) AppendedBytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// LastCheckpoint reports the most recent completed checkpoint, from
// either the recovery scan or a CompleteCheckpoint this session.
func (w *WAL) LastCheckpoint() (CheckpointInfo, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastCkpt, w.haveCkpt
}

// SegmentStats reports live segment count, their total bytes, and the
// rotation/prune counters.
func (w *WAL) SegmentStats() (segments int, bytes int64, rotations, prunes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.segs {
		bytes += s.size
	}
	return int(w.segGauge.Value()), bytes, w.rotations.Value(), w.prunes.Value()
}

// RecoveryWindow reports how many segments the opening scan read and
// how many the master record let it skip.
func (w *WAL) RecoveryWindow() (scanned, skipped int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.openScanned, w.openSkipped
}

// readImage fills p with the log bytes at off in segment seg of the
// replay window, as openWAL's visit reported them. Restart calls it
// before the log sees any append, so the segment chain is the one the
// tail scan read.
func (w *WAL) readImage(seg int, off int64, p []byte) error {
	if _, err := w.segs[seg].f.ReadAt(p, off); err != nil {
		return fmt.Errorf("storage: read log image at %s+%d: %w", w.segs[seg].path, off, err)
	}
	return nil
}

// CompleteCheckpoint finalizes a fuzzy checkpoint whose end record
// (info.EndLSN) is already durable: it writes the master record so
// recovery starts its scan at the segment containing RedoLSN, then
// unlinks every fully covered segment. A failure here never damages
// the log — the checkpoint merely reports failed and the next attempt
// re-prunes.
func (w *WAL) CompleteCheckpoint(info CheckpointInfo) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := len(w.segs) - 1
	for i, s := range w.segs {
		if s.lastLSN >= info.RedoLSN {
			start = i
			break
		}
	}
	if err := w.writeMasterLocked(info, w.segs[start].seq); err != nil {
		return err
	}
	w.lastCkpt, w.haveCkpt = info, true
	// The master is durable: recovery will skip segments before start
	// even if pruning fails or crashes partway.
	w.replayFrom = start
	for w.replayFrom > 0 {
		s := w.segs[0]
		if fp := fault.Hit(fault.SiteWALPrune); fp != nil {
			w.updateSegMetricsLocked()
			return fmt.Errorf("storage: wal prune %s: %w", s.path, fp.Err)
		}
		s.f.Close()
		if err := w.fs.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			// The handle is gone but the chain must stay consistent:
			// drop the segment to the stale list for the next attempt.
			w.stale = append(w.stale, s.path)
			w.segs = w.segs[1:]
			w.replayFrom--
			w.updateSegMetricsLocked()
			return fmt.Errorf("storage: wal prune %s: %w", s.path, err)
		}
		w.segs = w.segs[1:]
		w.replayFrom--
		w.prunes.Inc()
	}
	for len(w.stale) > 0 {
		p := w.stale[0]
		if fp := fault.Hit(fault.SiteWALPrune); fp != nil {
			w.updateSegMetricsLocked()
			return fmt.Errorf("storage: wal prune %s: %w", p, fp.Err)
		}
		if err := w.fs.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			w.updateSegMetricsLocked()
			return fmt.Errorf("storage: wal prune %s: %w", p, err)
		}
		w.stale = w.stale[1:]
		w.prunes.Inc()
	}
	w.updateSegMetricsLocked()
	return nil
}

// Master record framing: "RWCK" | u64 redo | u64 begin | u64 end |
// u64 startSeq | u32 crc32 of the preceding 36 bytes.
const masterLen = 4 + 8*4 + 4

type masterRecord struct {
	redoLSN  uint64
	beginLSN uint64
	endLSN   uint64
	startSeq uint64
}

func (w *WAL) writeMasterLocked(info CheckpointInfo, startSeq uint64) error {
	frame := make([]byte, 0, masterLen)
	frame = append(frame, 'R', 'W', 'C', 'K')
	frame = binary.LittleEndian.AppendUint64(frame, info.RedoLSN)
	frame = binary.LittleEndian.AppendUint64(frame, info.BeginLSN)
	frame = binary.LittleEndian.AppendUint64(frame, info.EndLSN)
	frame = binary.LittleEndian.AppendUint64(frame, startSeq)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	if fp := fault.Hit(fault.SiteCkptMaster); fp != nil {
		if fp.Torn >= 0 && fp.Torn < len(frame) {
			if f, err := w.fs.OpenFile(masterPath(w.path)); err == nil {
				_, _ = f.WriteAt(frame[:fp.Torn], 0)
				f.Close()
			}
		}
		return fmt.Errorf("storage: checkpoint master: %w", fp.Err)
	}
	f, err := w.fs.OpenFile(masterPath(w.path))
	if err != nil {
		return fmt.Errorf("storage: checkpoint master: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(frame, 0); err != nil {
		return fmt.Errorf("storage: checkpoint master: %w", err)
	}
	if err := f.Truncate(int64(len(frame))); err != nil {
		return fmt.Errorf("storage: checkpoint master: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: checkpoint master: %w", err)
	}
	return nil
}

// readMaster loads and validates the master record; any damage (torn
// write at the crash, missing file) just disables the scan shortcut.
func readMaster(fs fault.FS, path string) (masterRecord, bool) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return masterRecord{}, false
	}
	defer f.Close()
	var frame [masterLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, masterLen), frame[:]); err != nil {
		return masterRecord{}, false
	}
	if string(frame[:4]) != "RWCK" {
		return masterRecord{}, false
	}
	if crc32.ChecksumIEEE(frame[:masterLen-4]) != binary.LittleEndian.Uint32(frame[masterLen-4:]) {
		return masterRecord{}, false
	}
	return masterRecord{
		redoLSN:  binary.LittleEndian.Uint64(frame[4:12]),
		beginLSN: binary.LittleEndian.Uint64(frame[12:20]),
		endLSN:   binary.LittleEndian.Uint64(frame[20:28]),
		startSeq: binary.LittleEndian.Uint64(frame[28:36]),
	}, true
}

// Close flushes and closes the log. Every segment handle is closed
// even when the final flush or fsync fails, so Close never leaks a
// descriptor.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	serr := w.syncLocked()
	var cerr error
	for _, s := range w.segs {
		if err := s.f.Close(); err != nil && cerr == nil {
			cerr = err
		}
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// scanFile reads records from the start of f, invoking fn with each
// valid record and the offset just past it. A torn or corrupt record
// ends the scan without error (it is the crash frontier). The scan
// reads through ReadAt so the handle's write position is untouched.
// Every record is decoded into the same LogRecord and buffer, so fn
// must copy whatever it keeps.
func scanFile(f fault.File, fn func(rec *LogRecord, end int64)) error {
	d := recordReader{r: bufio.NewReaderSize(io.NewSectionReader(f, 0, 1<<62), 1<<16)}
	var rec LogRecord
	var off int64
	for {
		n, err := d.next(&rec)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errBadChecksum) {
				return nil
			}
			return err
		}
		off += n
		fn(&rec, off)
	}
}

var errBadChecksum = errors.New("storage: wal record checksum mismatch")

// Checkpoint payload codecs. The begin record's After bytes carry the
// active-transaction table (txn id -> first LSN), sorted by id for
// deterministic framing; the end record's After bytes carry the
// redoLSN and the matching begin record's LSN.

func encodeATT(att map[uint64]uint64) []byte {
	ids := make([]uint64, 0, len(att))
	for id := range att {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, id)
		out = binary.LittleEndian.AppendUint64(out, att[id])
	}
	return out
}

func decodeATT(b []byte) (map[uint64]uint64, bool) {
	if len(b) < 4 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if uint64(len(b)) != 4+uint64(n)*16 {
		return nil, false
	}
	att := make(map[uint64]uint64, n)
	for i := uint32(0); i < n; i++ {
		off := 4 + i*16
		att[binary.LittleEndian.Uint64(b[off:off+8])] = binary.LittleEndian.Uint64(b[off+8 : off+16])
	}
	return att, true
}

func encodeCkptEnd(info CheckpointInfo) []byte {
	out := binary.LittleEndian.AppendUint64(nil, info.RedoLSN)
	return binary.LittleEndian.AppendUint64(out, info.BeginLSN)
}

func decodeCkptEnd(b []byte) (CheckpointInfo, bool) {
	if len(b) != 16 {
		return CheckpointInfo{}, false
	}
	return CheckpointInfo{
		RedoLSN:  binary.LittleEndian.Uint64(b[:8]),
		BeginLSN: binary.LittleEndian.Uint64(b[8:16]),
	}, true
}

// recFixedLen is the fixed part of a record payload: u64 lsn, u64
// txn, u8 kind, u32 page, u16 slot. The minimum structurally valid
// payload adds the two u32 image lengths. recHeadLen is everything a
// frame carries before its before-image: the u32 payload length, the
// u32 CRC, the fixed fields and the u32 before-image length.
const (
	recFixedLen   = 23
	recMinPayload = recFixedLen + 4 + 4
	recHeadLen    = 8 + recFixedLen + 4
)

// On-disk record framing:
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// payload: u64 lsn | u64 txn | u8 kind | u32 page | u16 slot |
//
//	u32 beforeLen | before | u32 afterLen | after
//
// frameHead fills head with rec's frame up to its before-image and
// afterLen with the after-image length field; the frame is head,
// rec.Before, afterLen, rec.After. The CRC is accumulated over those
// pieces in payload order, so no contiguous payload is ever built.
func frameHead(rec *LogRecord, head *[recHeadLen]byte, afterLen *[4]byte) {
	le := binary.LittleEndian
	le.PutUint64(head[8:], rec.LSN)
	le.PutUint64(head[16:], rec.Txn)
	head[24] = byte(rec.Kind)
	le.PutUint32(head[25:], uint32(rec.RID.Page))
	le.PutUint16(head[29:], rec.RID.Slot)
	le.PutUint32(head[31:], uint32(len(rec.Before)))
	le.PutUint32(afterLen[:], uint32(len(rec.After)))
	crc := crc32.Update(0, crc32.IEEETable, head[8:])
	crc = crc32.Update(crc, crc32.IEEETable, rec.Before)
	crc = crc32.Update(crc, crc32.IEEETable, afterLen[:])
	crc = crc32.Update(crc, crc32.IEEETable, rec.After)
	le.PutUint32(head[0:], uint32(recMinPayload+len(rec.Before)+len(rec.After)))
	le.PutUint32(head[4:], crc)
}

// frameLen is the on-disk size of rec's frame.
func frameLen(rec *LogRecord) int { return 8 + recMinPayload + len(rec.Before) + len(rec.After) }

// encodeRecord assembles rec's whole frame in one new slice. Append
// never does; only a torn-append failpoint needs the frame as bytes.
func encodeRecord(rec *LogRecord) []byte {
	var head [recHeadLen]byte
	var afterLen [4]byte
	frameHead(rec, &head, &afterLen)
	return slices.Concat(head[:], rec.Before, afterLen[:], rec.After)
}

// recordReader decodes consecutive frames from r into one reused
// buffer, which grows to the largest frame seen: a decoded record's
// images alias it until the next call.
type recordReader struct {
	r   io.Reader
	hdr [8]byte
	buf []byte
}

// next decodes one frame into rec and returns the frame's length.
// Structural corruption — a payload too short for the fixed header,
// or image lengths overrunning the payload — is reported as
// errBadChecksum so the scan treats it as the crash frontier rather
// than panicking on a slice bound.
func (d *recordReader) next(rec *LogRecord) (int64, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return 0, err
	}
	payloadLen := binary.LittleEndian.Uint32(d.hdr[0:4])
	crc := binary.LittleEndian.Uint32(d.hdr[4:8])
	if payloadLen > 16*PageSize || payloadLen < recMinPayload {
		return 0, errBadChecksum
	}
	if uint32(cap(d.buf)) < payloadLen {
		d.buf = make([]byte, payloadLen)
	}
	payload := d.buf[:payloadLen]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return 0, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, errBadChecksum
	}
	// Validate the image lengths before slicing; uint64 arithmetic
	// keeps a 4 GiB length field from overflowing the bounds checks.
	n := uint64(payloadLen)
	bl := uint64(binary.LittleEndian.Uint32(payload[recFixedLen : recFixedLen+4]))
	if recMinPayload+bl > n {
		return 0, errBadChecksum
	}
	al := uint64(binary.LittleEndian.Uint32(payload[recFixedLen+4+bl : recFixedLen+8+bl]))
	if recMinPayload+bl+al != n {
		return 0, errBadChecksum
	}
	*rec = LogRecord{
		LSN:  binary.LittleEndian.Uint64(payload[0:8]),
		Txn:  binary.LittleEndian.Uint64(payload[8:16]),
		Kind: LogKind(payload[16]),
		RID: RID{
			Page: PageID(binary.LittleEndian.Uint32(payload[17:21])),
			Slot: binary.LittleEndian.Uint16(payload[21:23]),
		},
	}
	if bl > 0 {
		rec.Before = payload[recFixedLen+4 : recFixedLen+4+bl : recFixedLen+4+bl]
	}
	if al > 0 {
		rec.After = payload[recFixedLen+8+bl:]
	}
	return int64(8 + payloadLen), nil
}
