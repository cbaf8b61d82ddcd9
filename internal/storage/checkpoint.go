package storage

import (
	"errors"
	"time"

	"repro/internal/clock"
)

// CheckpointOptions configure fuzzy checkpointing and the background
// checkpointer. The zero value leaves the background goroutine off;
// Checkpoint can always be called manually.
type CheckpointOptions struct {
	// Auto starts the background checkpointer goroutine.
	Auto bool
	// Interval is the age trigger: a checkpoint runs when this long has
	// passed since the last one, even if the byte trigger never fired.
	// Zero selects 30s.
	Interval time.Duration
	// WALBytes is the byte trigger: once this many bytes have been
	// appended to the log since the last checkpoint, one is scheduled.
	// Zero selects 8 MiB.
	WALBytes int64
	// Clock paces the background checkpointer; nil selects the real
	// clock. Tests inject a virtual clock.
	Clock clock.Clock
}

func (o CheckpointOptions) withDefaults() CheckpointOptions {
	if o.Interval <= 0 {
		o.Interval = 30 * time.Second
	}
	if o.WALBytes <= 0 {
		o.WALBytes = 8 << 20
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	return o
}

// checkpointBackoff is the background checkpointer's retry delay after
// a failed checkpoint; it doubles per consecutive failure up to 8x.
const checkpointBackoff = time.Second

// checkpointDegradedAfter is how many consecutive checkpoint failures
// flip the store's health to degraded.
const checkpointDegradedAfter = 3

// errCkptIdle is the internal "nothing to do" outcome: the log has not
// grown since the last completed checkpoint. It never escapes
// Checkpoint and never touches the health state.
var errCkptIdle = errors.New("storage: checkpoint idle")

// Checkpoint takes a fuzzy (ARIES-style) checkpoint: it runs online,
// with transactions in flight, and never blocks on them.
//
//	rotate     seal the active WAL segment so prior records are prunable
//	begin      log CKPT-BEGIN carrying the active-transaction table
//	flush      write back every dirty, steal-safe page concurrently with
//	           mutators (log-ahead: each page's records are forced first)
//	end        log CKPT-END carrying redoLSN = min(beginLSN, first LSN of
//	           each active txn, recLSN of each still-dirty page); force it
//	master     point the side master record at the segment holding
//	           redoLSN; prune fully covered segments
//
// On success recovery redo starts at redoLSN and reads only segments
// from the master's start, bounding restart work. A failure at any
// step leaves the log intact — the checkpoint reports failed, health
// accounting runs (repeated failures surface as a degraded store in
// Stats), and the next attempt simply retries. Checkpoint failures
// never poison a healthy store.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	stop := s.ckptDur.Time()
	err := s.checkpointOnce()
	if errors.Is(err, errCkptIdle) {
		return nil
	}
	stop()
	s.noteCheckpoint(err)
	return err
}

// checkpointOnce runs one checkpoint attempt; the caller holds ckptMu.
func (s *Store) checkpointOnce() error {
	s.mu.Lock()
	if s.poison != nil {
		s.mu.Unlock()
		return s.poison
	}
	if s.wal.NextLSN() == s.ckptLastNext {
		s.mu.Unlock()
		return errCkptIdle
	}
	// Seal the active segment first: everything logged before this
	// checkpoint then sits in sealed segments, which become prunable
	// the moment redoLSN passes them.
	if err := s.wal.Rotate(); err != nil {
		s.mu.Unlock()
		return err
	}
	att := make(map[uint64]uint64, len(s.active)+len(s.forcing))
	for id, st := range s.active {
		att[id] = st.firstLSN
	}
	for id, st := range s.forcing {
		// A forcing transaction's commit record is not yet known
		// durable; treat it as active so redo can still decide its fate.
		att[id] = st.firstLSN
	}
	beginLSN, err := s.wal.Append(&LogRecord{
		Txn: sysTxn, Kind: LogCkptBegin, RID: InvalidRID, After: encodeATT(att),
	})
	s.mu.Unlock()
	if err != nil {
		return err
	}
	flushed, err := s.flushDirtyFuzzy()
	if err != nil {
		return err
	}
	if err := s.pager.Sync(); err != nil {
		flushed(false)
		return err
	}
	flushed(true)
	redo := beginLSN
	for _, first := range att {
		if first != 0 && first < redo {
			redo = first
		}
	}
	// Pages still dirty (redirtied during the flush, or whose write
	// failed to stick) pin redo down to their earliest unflushed record.
	if m := s.pool.MinDirtyRecLSN(); m != 0 && m < redo {
		redo = m
	}
	s.mu.Lock()
	if s.poison != nil {
		s.mu.Unlock()
		return s.poison
	}
	info := CheckpointInfo{RedoLSN: redo, BeginLSN: beginLSN}
	endLSN, err := s.wal.Append(&LogRecord{
		Txn: sysTxn, Kind: LogCkptEnd, RID: InvalidRID, After: encodeCkptEnd(info),
	})
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// The end record must be durable before the master may point at it:
	// a CKPT-END found on disk certifies that every page flush above
	// completed (they happened strictly before this force).
	if err := s.wal.Sync(); err != nil {
		return err
	}
	info.EndLSN = endLSN
	if err := s.wal.CompleteCheckpoint(info); err != nil {
		return err
	}
	s.mu.Lock()
	s.ckptLastNext = s.wal.NextLSN()
	s.ckptBaseBytes = s.wal.AppendedBytes()
	s.lastCkpt = info
	s.mu.Unlock()
	return nil
}

// flushDirtyFuzzy writes every dirty, steal-safe page back to the data
// file while mutators keep running. Per page: snapshot the bytes under
// the store mutex (a consistent image), force the log past every
// record the image reflects (WAL-ahead-of-data — required when commits
// run without fsync), then write the copy off-lock. On success it
// returns a finish callback the caller invokes after the pager fsync:
// finish(true) clears the dirty flag of every written frame iff nobody
// redirtied it meanwhile; finish(false) keeps them all dirty for the
// next attempt.
func (s *Store) flushDirtyFuzzy() (func(written bool), error) {
	ids := s.pool.DirtyIDs()
	type flushedFrame struct {
		id  PageID
		ver uint64
	}
	done := make([]flushedFrame, 0, len(ids))
	finish := func(written bool) {
		for _, fl := range done {
			s.pool.EndFlush(fl.id, fl.ver, written)
		}
	}
	var buf Page
	for _, id := range ids {
		s.mu.Lock()
		ver, ok := s.pool.SnapshotFrame(id, &buf)
		frontier := s.wal.NextLSN() - 1
		s.mu.Unlock()
		if !ok {
			continue // evicted, cleaned, or re-protected since the snapshot
		}
		if err := s.wal.SyncTo(frontier); err != nil {
			s.pool.EndFlush(id, ver, false)
			finish(false)
			return nil, err
		}
		if err := s.pager.Write(id, &buf); err != nil {
			s.pool.EndFlush(id, ver, false)
			finish(false)
			return nil, err
		}
		done = append(done, flushedFrame{id, ver})
	}
	return finish, nil
}

// noteCheckpoint folds one attempt's outcome into the health state.
func (s *Store) noteCheckpoint(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.ckptOK.Inc()
		s.ckptConsecFails = 0
		s.ckptLastErr = ""
		s.ckptDegraded.Set(0)
		return
	}
	s.ckptErr.Inc()
	s.ckptConsecFails++
	s.ckptLastErr = err.Error()
	if s.ckptConsecFails >= checkpointDegradedAfter {
		s.ckptDegraded.Set(1)
	}
}

// CheckpointLag reports how many WAL bytes have accumulated since the
// last completed checkpoint, alongside the configured byte trigger.
// Lag well past the trigger means the checkpointer is falling behind
// the write rate — the storage backpressure signal the overload
// governor turns into a degraded health state before the WAL-growth
// bound trips.
func (s *Store) CheckpointLag() (lag, trigger int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.wal.AppendedBytes() - s.ckptBaseBytes), s.copts.WALBytes
}

// maybeTriggerCheckpoint nudges the background checkpointer when the
// log has grown past the byte trigger since the last checkpoint. The
// send never blocks: a full notify channel means a run is already due.
func (s *Store) maybeTriggerCheckpoint() {
	if s.ckptNotify == nil {
		return
	}
	s.mu.Lock()
	due := s.wal.AppendedBytes()-s.ckptBaseBytes >= uint64(s.copts.WALBytes)
	s.mu.Unlock()
	if !due {
		return
	}
	select {
	case s.ckptNotify <- struct{}{}:
	default:
	}
}

// checkpointLoop is the background checkpointer: it fires on the byte
// trigger (via maybeTriggerCheckpoint), on the age interval, and backs
// off exponentially while checkpoints fail so a sick disk is not
// hammered. Close stops it before closing any file.
func (s *Store) checkpointLoop() {
	defer close(s.ckptDone)
	var backoff time.Duration
	for {
		wait := s.copts.Interval
		if backoff > 0 {
			wait = backoff
		}
		select {
		case <-s.ckptStop:
			return
		case <-s.ckptNotify:
		case <-s.copts.Clock.After(wait):
		}
		err := s.Checkpoint()
		switch {
		case err == nil:
			backoff = 0
		case errors.Is(err, ErrInDoubt):
			// The store is poisoned; only reopening can fix it. Hold at
			// the maximum backoff instead of spinning.
			backoff = 8 * checkpointBackoff
		case backoff == 0:
			backoff = checkpointBackoff
		case backoff < 8*checkpointBackoff:
			backoff *= 2
		}
	}
}

// stopCheckpointer halts the background checkpointer and waits for it
// to exit. Idempotent; a no-op when the checkpointer never started.
func (s *Store) stopCheckpointer() {
	if s.ckptStop == nil {
		return
	}
	s.ckptStopOnce.Do(func() {
		close(s.ckptStop)
		<-s.ckptDone
	})
}

// CheckpointHealth is the durability health surface: totals, the
// consecutive-failure streak, and the degraded flag that flips after
// checkpointDegradedAfter (3) straight failures.
type CheckpointHealth struct {
	Checkpoints         uint64 `json:"checkpoints"`
	Failures            uint64 `json:"failures"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Degraded            bool   `json:"degraded"`
	LastError           string `json:"last_error,omitempty"`
	LastRedoLSN         uint64 `json:"last_redo_lsn"`
	LastEndLSN          uint64 `json:"last_end_lsn"`
}

// CheckpointHealth reports the checkpoint health snapshot.
func (s *Store) CheckpointHealth() CheckpointHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CheckpointHealth{
		Checkpoints:         s.ckptOK.Value(),
		Failures:            s.ckptErr.Value(),
		ConsecutiveFailures: s.ckptConsecFails,
		Degraded:            s.ckptDegraded.Value() == 1,
		LastError:           s.ckptLastErr,
		LastRedoLSN:         s.lastCkpt.RedoLSN,
		LastEndLSN:          s.lastCkpt.EndLSN,
	}
}
