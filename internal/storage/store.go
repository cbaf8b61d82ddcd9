package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Options configure a Store.
type Options struct {
	// BufferPoolPages is the nominal buffer-pool capacity in pages.
	// Zero selects a default of 256 pages (2 MiB).
	BufferPoolPages int
	// Metrics, when set, binds the store's counters (buffer hits and
	// misses, WAL syncs and fsync latency) into a shared registry.
	Metrics *obs.Registry
	// FS is the filesystem the store's data file and write-ahead log
	// are opened through. Nil selects the real filesystem; the
	// crash-consistency harness substitutes a fault.ShadowFS.
	FS fault.FS
	// DisableGroupCommit makes every committer force its own fsync
	// instead of batching behind a group-commit leader. It exists as
	// the ablation switch for the contention experiments (E13); leave
	// it false everywhere else.
	DisableGroupCommit bool
	// WALSegmentBytes caps a WAL segment before rotation. Zero selects
	// DefaultSegmentBytes.
	WALSegmentBytes int64
	// Checkpoint configures fuzzy checkpointing and the background
	// checkpointer; the zero value leaves the background goroutine off
	// so tests that count fsyncs stay deterministic.
	Checkpoint CheckpointOptions
}

func (o Options) withDefaults() Options {
	if o.BufferPoolPages == 0 {
		o.BufferPoolPages = 256
	}
	return o
}

// Store is a durable record store: uninterpreted byte records addressed
// by RID, with transactional insert/update/delete under write-ahead
// logging (no-steal, no-force) and redo-only crash recovery.
//
// The log carries after-images only. No-steal keeps every page a live
// transaction dirtied in memory, and the forcing set extends that
// protection until the commit record is durable, so no uncommitted
// byte ever reaches the data file and restart has nothing to undo.
// An in-flight abort undoes from the before-images the transaction
// keeps in memory.
//
// The Store does not assign transaction identifiers; the transaction
// manager above passes them in. Concurrency control is likewise the
// caller's job (the lock manager serializes conflicting object
// access); the Store only guarantees its own internal consistency.
type Store struct {
	pager *Pager
	pool  *BufferPool
	wal   *WAL
	opts  Options

	mu     sync.Mutex
	active map[uint64]*txnState
	// forcing holds transactions whose commit record is appended but
	// not yet known durable: their pages stay steal-protected so no
	// flush (checkpoint or eviction) publishes effects whose commit a
	// crash might lose.
	forcing map[uint64]*txnState
	// free holds resolved transaction states for Begin to reuse, so a
	// steady stream of small transactions allocates none.
	free       []*txnState
	insertHint PageID // last page that accepted an insert
	// poison is set when a commit's durability is in doubt: the commit
	// record was appended but forcing it to stable storage failed, so
	// neither outcome can be asserted. A poisoned store refuses all
	// further mutation and checkpointing; only crash recovery on the
	// next Open, which replays what actually reached the disk, can
	// resolve the transaction's fate.
	poison error

	// Fuzzy-checkpoint state. ckptMu serializes whole checkpoints
	// (manual, background, Close) and is always taken before s.mu.
	ckptMu        sync.Mutex
	copts         CheckpointOptions
	ckptLastNext  uint64 // wal.NextLSN after the last completed checkpoint (idle skip)
	ckptBaseBytes uint64 // wal.AppendedBytes at the last completed checkpoint (byte trigger)
	lastCkpt      CheckpointInfo

	// Health: consecutive failures set the ckptDegraded gauge; any
	// success clears it. Guarded by s.mu.
	ckptConsecFails int
	ckptLastErr     string

	// Background checkpointer plumbing; nil channels when Auto is off.
	ckptNotify   chan struct{}
	ckptStop     chan struct{}
	ckptDone     chan struct{}
	ckptStopOnce sync.Once

	// Checkpoint/recovery metrics, standalone by default and rebound
	// into the registry when Options.Metrics is set.
	ckptOK       *obs.Counter
	ckptErr      *obs.Counter
	ckptDegraded *obs.Gauge
	ckptDur      *obs.Histogram
	recoverDur   *obs.Histogram

	// Recovery-window accounting from the last Open, for Stats.
	recSegsScanned int
	recSegsSkipped int
	recRecords     int
	recReplayed    int
}

type txnState struct {
	ops []undoOp
	// before holds the before-images of every update and delete, back
	// to back; an undoOp addresses its image by offset.
	before []byte
	// pages is the set of pages the transaction dirtied; each holds one
	// unit of its frame's steal count until the transaction resolves.
	pages    map[PageID]struct{}
	firstLSN uint64 // LSN of the BEGIN record; pins a fuzzy checkpoint's redoLSN
}

// A resolved transaction's state goes back on the store's free list
// unless it grew past one of these, so a rare bulk load does not pin
// its arena for the life of the store; nor does the list itself grow
// past maxFreeTxnStates.
const (
	maxRecycledBefore = 64 << 10
	maxRecycledOps    = 1024
	maxRecycledPages  = 64
	maxFreeTxnStates  = 16
)

// newTxnStateLocked returns an empty transaction state, reusing a
// resolved one when the free list has it.
func (s *Store) newTxnStateLocked() *txnState {
	if n := len(s.free); n > 0 {
		st := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return st
	}
	return &txnState{pages: make(map[PageID]struct{})}
}

// recycleLocked returns a resolved transaction's state to the free
// list, emptied but with its capacity kept.
func (s *Store) recycleLocked(st *txnState) {
	if len(s.free) >= maxFreeTxnStates || cap(st.before) > maxRecycledBefore ||
		cap(st.ops) > maxRecycledOps || len(st.pages) > maxRecycledPages {
		return
	}
	st.ops = st.ops[:0]
	st.before = st.before[:0]
	clear(st.pages)
	st.firstLSN = 0
	s.free = append(s.free, st)
}

type undoOp struct {
	kind   LogKind
	rid    RID
	off, n int // before-image: before[off:off+n]
}

// saveBefore appends rec to the transaction's before-images and
// returns the undo record of a kind change to rid.
func (st *txnState) saveBefore(kind LogKind, rid RID, rec []byte) undoOp {
	off := len(st.before)
	st.before = append(st.before, rec...)
	return undoOp{kind: kind, rid: rid, off: off, n: len(rec)}
}

// Errors returned by Store operations.
var (
	// ErrTxnActive is retained for callers that still match on it; the
	// fuzzy checkpoint no longer refuses to run while transactions are
	// in flight, so Checkpoint never returns it anymore.
	ErrTxnActive   = errors.New("storage: transactions still active")
	ErrUnknownTxn  = errors.New("storage: unknown transaction")
	ErrStoreClosed = errors.New("storage: store closed")
	// ErrInDoubt is returned by Commit when the commit record could
	// not be forced to stable storage: the transaction may or may not
	// be durable, and every later mutating operation fails with the
	// same error until the store is reopened and recovery resolves
	// the outcome from the log that actually hit the disk.
	ErrInDoubt = errors.New("storage: commit outcome in doubt")
)

// Open opens (creating if necessary) the store in dir, running crash
// recovery against the write-ahead log before returning.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if fs == nil {
		fs = fault.OS{}
	}
	pager, err := OpenPagerFS(fs, filepath.Join(dir, "data.db"))
	if err != nil {
		return nil, err
	}
	// The log's open-time tail scan is restart's only read of the log:
	// it finds which transactions committed and indexes where every
	// data record's after-image lies, and redo reads back only those.
	idx := redoIndex{committed: map[uint64]bool{sysTxn: true}} // system records always replay
	wal, err := openWAL(fs, filepath.Join(dir, "wal.log"), opts.WALSegmentBytes, idx.add)
	if err != nil {
		_ = pager.Close() // opening the WAL failed; the close is best-effort cleanup
		return nil, err
	}
	s := &Store{
		pager:        pager,
		pool:         NewBufferPool(pager, opts.BufferPoolPages),
		wal:          wal,
		opts:         opts,
		copts:        opts.Checkpoint.withDefaults(),
		active:       make(map[uint64]*txnState),
		forcing:      make(map[uint64]*txnState),
		insertHint:   InvalidPageID,
		ckptOK:       new(obs.Counter),
		ckptErr:      new(obs.Counter),
		ckptDegraded: new(obs.Gauge),
		ckptDur:      new(obs.Histogram),
		recoverDur:   new(obs.Histogram),
	}
	if opts.Metrics != nil {
		s.pool.Instrument(opts.Metrics)
		wal.Instrument(opts.Metrics)
		s.instrument(opts.Metrics)
	}
	stopRecover := s.recoverDur.Time()
	err = s.recover(&idx)
	stopRecover()
	if err != nil {
		_ = wal.Close()   // recovery failed; the closes are best-effort cleanup
		_ = pager.Close() // recovery failed; the closes are best-effort cleanup
		return nil, err
	}
	if s.copts.Auto {
		s.ckptNotify = make(chan struct{}, 1)
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	return s, nil
}

// instrument rebinds the store-level checkpoint/recovery metrics into
// reg.
func (s *Store) instrument(reg *obs.Registry) {
	const name, help = "reach_checkpoint_total", "Fuzzy checkpoint attempts by result."
	s.ckptOK = reg.Counter(name, help, "result", "ok")
	s.ckptErr = reg.Counter(name, help, "result", "error")
	s.ckptDegraded = reg.Gauge("reach_checkpoint_degraded",
		"1 while repeated checkpoint failures have the store in degraded mode.")
	s.ckptDur = reg.Histogram("reach_checkpoint_seconds", "Fuzzy checkpoint duration.")
	s.recoverDur = reg.Histogram("reach_recovery_seconds",
		"Crash-recovery duration at store open (bounded by the last checkpoint).")
}

// Begin registers a storage-level transaction. It is idempotent.
// Transaction id 0 is reserved for system records.
func (s *Store) Begin(txn uint64) error {
	if txn == sysTxn {
		return fmt.Errorf("storage: transaction id %d is reserved", sysTxn)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poison != nil {
		return s.poison
	}
	if _, ok := s.active[txn]; ok {
		return nil
	}
	lsn, err := s.wal.Append(&LogRecord{Txn: txn, Kind: LogBegin, RID: InvalidRID})
	if err != nil {
		return err
	}
	st := s.newTxnStateLocked()
	st.firstLSN = lsn
	s.active[txn] = st
	return nil
}

func (s *Store) txnState(txn uint64) (*txnState, error) {
	if s.poison != nil {
		return nil, s.poison
	}
	st, ok := s.active[txn]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTxn, txn)
	}
	return st, nil
}

// Insert stores data as a new record under txn and returns its RID.
func (s *Store) Insert(txn uint64, data []byte) (RID, error) {
	if len(data) > MaxRecordSize {
		return InvalidRID, ErrRecordTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.txnState(txn)
	if err != nil {
		return InvalidRID, err
	}
	return s.insertLocked(st, txn, data)
}

func (s *Store) insertLocked(st *txnState, txn uint64, data []byte) (RID, error) {
	rid, p, err := s.placeLocked(data)
	if err != nil {
		return InvalidRID, err
	}
	st.ops = append(st.ops, undoOp{kind: LogInsert, rid: rid})
	if err := s.logLocked(st, p, &LogRecord{Txn: txn, Kind: LogInsert, RID: rid, After: data}); err != nil {
		return InvalidRID, err
	}
	return rid, nil
}

// placeLocked finds a page with room and inserts data, returning the
// record's RID with its page still pinned.
func (s *Store) placeLocked(data []byte) (RID, *Page, error) {
	if id := s.insertHint; id != InvalidPageID && id < s.pager.NumPages() {
		p, err := s.pool.Pin(id)
		if err != nil {
			return InvalidRID, nil, err
		}
		slot, err := p.Insert(data)
		if err == nil {
			return RID{Page: id, Slot: slot}, p, nil
		}
		s.pool.Unpin(id, false, false)
		if !errors.Is(err, ErrPageFull) {
			return InvalidRID, nil, err
		}
	}
	id, p, err := s.pool.PinNew()
	if err != nil {
		return InvalidRID, nil, err
	}
	slot, err := p.Insert(data)
	if err != nil {
		s.pool.Unpin(id, false, false)
		return InvalidRID, nil, err
	}
	s.insertHint = id
	return RID{Page: id, Slot: slot}, p, nil
}

// logLocked appends rec, which describes a change just applied to the
// pinned page p, stamps the page with the record's LSN while it is
// still pinned, and unpins it dirty. st's first touch of the page
// raises the frame's steal count, which st's resolution lowers again.
// When the append fails the change stays applied in memory and the
// undo the caller recorded still covers it.
func (s *Store) logLocked(st *txnState, p *Page, rec *LogRecord) error {
	_, touched := st.pages[rec.RID.Page]
	if !touched {
		st.pages[rec.RID.Page] = struct{}{}
	}
	lsn, err := s.wal.Append(rec)
	if err == nil {
		p.SetLSN(lsn)
	}
	s.pool.Unpin(rec.RID.Page, true, !touched)
	return err
}

// Get returns a copy of the record at rid.
func (s *Store) Get(rid RID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(rid.Page, false, false)
	return p.Get(rid.Slot)
}

// Update replaces the record at rid with data under txn. When the
// record no longer fits its page it is relocated; the (possibly new)
// RID is returned and the caller must update its references.
func (s *Store) Update(txn uint64, rid RID, data []byte) (RID, error) {
	if len(data) > MaxRecordSize {
		return InvalidRID, ErrRecordTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.txnState(txn)
	if err != nil {
		return InvalidRID, err
	}
	p, err := s.pool.Pin(rid.Page)
	if err != nil {
		return InvalidRID, err
	}
	old, err := p.record(rid.Slot)
	if err != nil {
		s.pool.Unpin(rid.Page, false, false)
		return InvalidRID, err
	}
	undo := st.saveBefore(LogUpdate, rid, old)
	if err := p.Update(rid.Slot, data); err != nil {
		st.before = st.before[:undo.off]
		s.pool.Unpin(rid.Page, false, false)
		if !errors.Is(err, ErrPageFull) {
			return InvalidRID, err
		}
		// Relocate: delete here, insert elsewhere.
		if err := s.deleteLocked(st, txn, rid); err != nil {
			return InvalidRID, err
		}
		return s.insertLocked(st, txn, data)
	}
	st.ops = append(st.ops, undo)
	if err := s.logLocked(st, p, &LogRecord{Txn: txn, Kind: LogUpdate, RID: rid, After: data}); err != nil {
		return InvalidRID, err
	}
	return rid, nil
}

// Delete removes the record at rid under txn.
func (s *Store) Delete(txn uint64, rid RID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.txnState(txn)
	if err != nil {
		return err
	}
	return s.deleteLocked(st, txn, rid)
}

func (s *Store) deleteLocked(st *txnState, txn uint64, rid RID) error {
	p, err := s.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	old, err := p.record(rid.Slot)
	if err != nil {
		s.pool.Unpin(rid.Page, false, false)
		return err
	}
	undo := st.saveBefore(LogDelete, rid, old)
	if err := p.Delete(rid.Slot); err != nil {
		st.before = st.before[:undo.off]
		s.pool.Unpin(rid.Page, false, false)
		return err
	}
	st.ops = append(st.ops, undo)
	return s.logLocked(st, p, &LogRecord{Txn: txn, Kind: LogDelete, RID: rid})
}

// Commit makes txn's effects durable: a commit record is appended and
// the log is forced to stable storage.
//
// When the force fails, the commit record may or may not have reached
// the disk: Commit returns ErrInDoubt and poisons the store — every
// later mutating operation fails the same way, and Close will neither
// checkpoint nor truncate the log, so the next Open's recovery can
// resolve the transaction from what stable storage actually holds.
func (s *Store) Commit(txn uint64) error {
	s.mu.Lock()
	st, err := s.txnState(txn)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	lsn, err := s.wal.Append(&LogRecord{Txn: txn, Kind: LogCommit, RID: InvalidRID})
	if err != nil {
		// Nothing was forced yet; the transaction stays active and the
		// caller may abort it.
		s.mu.Unlock()
		return err
	}
	delete(s.active, txn)
	// The pages stay steal-protected until the commit record is known
	// durable: a fuzzy checkpoint or eviction flushing them during the
	// force could otherwise publish effects whose commit record a crash
	// then loses — uncommitted data on disk under redo-only recovery.
	s.forcing[txn] = st
	s.mu.Unlock()
	// Group commit: the force targets this commit record's LSN, so
	// concurrent committers share one leader's fsync instead of queueing
	// one fsync each behind wal.mu.
	force := s.wal.SyncTo
	if s.opts.DisableGroupCommit {
		force = func(uint64) error { return s.wal.Sync() }
	}
	ferr := force(lsn)
	s.mu.Lock()
	delete(s.forcing, txn)
	if ferr != nil {
		// Keep the steal protection: the store is poisoned and its
		// pages must not reach the data file with an undecided commit.
		if s.poison == nil {
			s.poison = fmt.Errorf("%w: txn %d: %v", ErrInDoubt, txn, ferr)
		}
		perr := s.poison
		s.mu.Unlock()
		return perr
	}
	s.releaseStealLocked(st)
	s.recycleLocked(st)
	s.mu.Unlock()
	s.maybeTriggerCheckpoint()
	return nil
}

// Abort rolls back txn's effects in memory. When a deleted or updated
// record could not be restored in place it is relocated; the returned
// map, nil when nothing moved, gives old→new RIDs the caller must
// re-point.
func (s *Store) Abort(txn uint64) (map[RID]RID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.txnState(txn)
	if err != nil {
		return nil, err
	}
	var reloc map[RID]RID
	for i := len(st.ops) - 1; i >= 0; i-- {
		op := st.ops[i]
		rid := op.rid
		if nr, ok := reloc[rid]; ok {
			rid = nr
		}
		before := st.before[op.off : op.off+op.n]
		switch op.kind {
		case LogInsert:
			p, err := s.pool.Pin(rid.Page)
			if err != nil {
				return reloc, err
			}
			if err := p.Delete(rid.Slot); err != nil {
				s.pool.Unpin(rid.Page, false, false)
				return reloc, err
			}
			if err := s.logLocked(st, p, &LogRecord{Txn: sysTxn, Kind: LogDelete, RID: rid}); err != nil {
				return reloc, err
			}
		case LogUpdate, LogDelete:
			moved, err := s.restoreLocked(st, rid, before, op.kind == LogUpdate)
			if err != nil {
				return reloc, err
			}
			if moved.Valid() {
				if reloc == nil {
					reloc = make(map[RID]RID)
				}
				reloc[op.rid] = moved
			}
		}
	}
	if _, err := s.wal.Append(&LogRecord{Txn: txn, Kind: LogAbort, RID: InvalidRID}); err != nil {
		return reloc, err
	}
	delete(s.active, txn)
	s.releaseStealLocked(st)
	undone := len(st.ops) > 0
	s.recycleLocked(st)
	if undone {
		// The undo was logged as system records; make them durable so
		// the post-abort state (including any relocated committed
		// records callers were handed) survives a crash.
		if err := s.wal.Sync(); err != nil {
			return reloc, err
		}
	}
	return reloc, nil
}

// sysTxn is the reserved transaction id for system-generated log
// records. Recovery always replays them, tolerantly, so the on-disk
// replay converges to the in-memory post-abort state: they describe
// the undo of aborted changes and abort-time relocations of committed
// record images, which must survive a crash because callers have
// already been handed the new RIDs.
const sysTxn = 0

// restoreLocked puts before back at rid; update=true means the slot is
// live and should be overwritten, false means the slot is dead and
// should be re-populated. On space exhaustion the record is relocated,
// its new RID returned (InvalidRID when it stayed put), and — because
// the moved image belongs to committed history — the move is logged
// under sysTxn so redo reproduces it after a crash.
func (s *Store) restoreLocked(st *txnState, rid RID, before []byte, update bool) (RID, error) {
	p, err := s.pool.Pin(rid.Page)
	if err != nil {
		return InvalidRID, err
	}
	kind := LogInsert
	if update {
		kind = LogUpdate
		err = p.Update(rid.Slot, before)
	} else {
		err = p.InsertAt(rid.Slot, before)
	}
	if err == nil {
		return InvalidRID, s.logLocked(st, p, &LogRecord{Txn: sysTxn, Kind: kind, RID: rid, After: before})
	}
	if !errors.Is(err, ErrPageFull) {
		s.pool.Unpin(rid.Page, false, false)
		return InvalidRID, err
	}
	if update {
		// Free the stale image before relocating.
		if err := p.Delete(rid.Slot); err != nil {
			s.pool.Unpin(rid.Page, false, false)
			return InvalidRID, err
		}
	}
	// Log the relocation: the committed image leaves rid and lands at
	// newRID.
	if err := s.logLocked(st, p, &LogRecord{Txn: sysTxn, Kind: LogDelete, RID: rid}); err != nil {
		return InvalidRID, err
	}
	newRID, np, err := s.placeLocked(before)
	if err != nil {
		return InvalidRID, err
	}
	if err := s.logLocked(st, np, &LogRecord{Txn: sysTxn, Kind: LogInsert, RID: newRID, After: before}); err != nil {
		return InvalidRID, err
	}
	return newRID, nil
}

// releaseStealLocked lowers the steal count of every page st dirtied.
func (s *Store) releaseStealLocked(st *txnState) {
	for id := range st.pages {
		s.pool.ReleaseSteal(id)
	}
}

// Scan calls fn for every live record in the store, page by page. data
// is the record's bytes in its pinned buffer frame: it is valid only
// during the call, fn must copy whatever it keeps, and fn must not call
// back into the store. Scan must not be called with transactions in
// flight whose effects should be hidden; the layers above arrange
// isolation.
func (s *Store) Scan(fn func(rid RID, data []byte)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.pager.NumPages()
	for id := PageID(0); id < n; id++ {
		p, err := s.pool.Pin(id)
		if err != nil {
			return err
		}
		p.Slots(func(slot uint16, data []byte) {
			fn(RID{Page: id, Slot: slot}, data[:len(data):len(data)])
		})
		s.pool.Unpin(id, false, false)
	}
	return nil
}

// Close stops the background checkpointer, takes a final fuzzy
// checkpoint (online, so transactions still in flight do not block
// it), and closes the store's files. The WAL and pager handles are
// closed even when the checkpoint fails, so Close never leaks file
// descriptors. On a poisoned store the checkpoint refuses to run and
// Close reports success without it — recovery on the next Open must
// see exactly what stable storage holds to resolve the in-doubt
// commit. (The final wal.Close still re-attempts the flush; forcing
// the in-doubt commit record late only narrows the doubt, never
// widens it.)
func (s *Store) Close() error {
	s.stopCheckpointer()
	cerr := s.Checkpoint()
	if errors.Is(cerr, ErrInDoubt) {
		// Poisoned: preserving the log evidence IS the close contract.
		cerr = nil
	}
	werr := s.wal.Close()
	perr := s.pager.Close()
	if cerr != nil {
		return cerr
	}
	if werr != nil {
		return werr
	}
	return perr
}

// Stats reports storage counters.
type Stats struct {
	Pages       PageID
	BufferHits  uint64
	BufferMiss  uint64
	WALSyncs    uint64
	WALNextLSN  uint64
	ActiveTxns  int
	FramesAlive int
	// Group-commit effectiveness: how many commit forces were
	// requested (requests/WALSyncs is the amortization factor), how
	// many follower batches a leader released, and the largest such
	// batch. Uncontended forces never park a follower, so the batch
	// counters stay zero on a serial workload.
	GroupCommitRequests uint64
	GroupCommitBatches  uint64
	GroupBatchHighwater int64
	// Segmented-WAL shape: live segment files, their total bytes, and
	// the cumulative rotation/prune counts.
	WALSegments     int
	WALSegmentBytes int64
	WALRotations    uint64
	WALPrunes       uint64
	// WALCheckpointLag is bytes appended since the last completed
	// checkpoint — the checkpointer-backpressure signal the overload
	// governor watches.
	WALCheckpointLag int64
	// Checkpoint health (see CheckpointHealth for the full surface).
	Checkpoints         uint64
	CheckpointFailures  uint64
	CheckpointDegraded  bool
	LastCheckpointError string
	LastRedoLSN         uint64
	// Recovery window of the last Open: segments the scan read vs
	// skipped thanks to the master record, and records scanned vs
	// actually replayed past redoLSN.
	RecoverySegmentsScanned int
	RecoverySegmentsSkipped int
	RecoveryRecordsScanned  int
	RecoveryRecordsReplayed int
}

// Stats returns a snapshot of storage counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	active := len(s.active) + len(s.forcing)
	health := CheckpointHealth{
		Checkpoints:         s.ckptOK.Value(),
		Failures:            s.ckptErr.Value(),
		ConsecutiveFailures: s.ckptConsecFails,
		Degraded:            s.ckptDegraded.Value() == 1,
		LastError:           s.ckptLastErr,
		LastRedoLSN:         s.lastCkpt.RedoLSN,
	}
	recSegs, recSkipped := s.recSegsScanned, s.recSegsSkipped
	recRecords, recReplayed := s.recRecords, s.recReplayed
	ckptLag := int64(s.wal.AppendedBytes() - s.ckptBaseBytes)
	s.mu.Unlock()
	hits, misses := s.pool.Stats()
	reqs, batches, high := s.wal.GroupCommitStats()
	segs, segBytes, rotations, prunes := s.wal.SegmentStats()
	return Stats{
		Pages:                   s.pager.NumPages(),
		BufferHits:              hits,
		BufferMiss:              misses,
		WALSyncs:                s.wal.Syncs(),
		WALNextLSN:              s.wal.NextLSN(),
		ActiveTxns:              active,
		FramesAlive:             s.pool.Len(),
		GroupCommitRequests:     reqs,
		GroupCommitBatches:      batches,
		GroupBatchHighwater:     high,
		WALSegments:             segs,
		WALSegmentBytes:         segBytes,
		WALRotations:            rotations,
		WALPrunes:               prunes,
		WALCheckpointLag:        ckptLag,
		Checkpoints:             health.Checkpoints,
		CheckpointFailures:      health.Failures,
		CheckpointDegraded:      health.Degraded,
		LastCheckpointError:     health.LastError,
		LastRedoLSN:             health.LastRedoLSN,
		RecoverySegmentsScanned: recSegs,
		RecoverySegmentsSkipped: recSkipped,
		RecoveryRecordsScanned:  recRecords,
		RecoveryRecordsReplayed: recReplayed,
	}
}

// redoEntry locates one data record of the replay window: the slot it
// changes, its transaction, and where its after-image lies in the log.
// It holds no image; redo reads the image back. With the sort key
// recover builds beside it, it costs 48 bytes per record.
type redoEntry struct {
	lsn  uint64
	txn  uint64
	off  int64  // after-image offset in segment seg
	n    uint32 // after-image length
	seg  uint32 // segment index in the replay window
	page PageID
	slot uint16
	kind LogKind
}

// redoIndex is what the log's open-time tail scan collects for redo:
// the committed set and, in log order, a redoEntry per data record.
type redoIndex struct {
	committed map[uint64]bool
	entries   []redoEntry
	scanned   int
}

// add is openWAL's visit callback.
func (x *redoIndex) add(rec *LogRecord, seg int, end int64) {
	x.scanned++
	switch rec.Kind {
	case LogCommit:
		x.committed[rec.Txn] = true
	case LogInsert, LogUpdate, LogDelete:
		x.entries = append(x.entries, redoEntry{
			lsn: rec.LSN, txn: rec.Txn, off: end - int64(len(rec.After)), n: uint32(len(rec.After)),
			seg: uint32(seg), page: rec.RID.Page, slot: rec.RID.Slot, kind: rec.Kind,
		})
	}
}

// recover redoes the write-ahead log: effects of committed
// transactions are redone against the data file; uncommitted effects
// never reached it (no-steal) and are simply discarded, so there is
// no undo pass. The log's open-time tail scan was the one scan of the
// window; it left the committed set and an index of every data
// record's position. The window is bounded: the WAL open already
// skipped every segment the master record covers, and redo skips
// records below the last completed checkpoint's redoLSN (their
// effects are certified durable).
//
// Redo runs page by page. Every record changes one page only, so a
// page's state depends on its own records alone, applied in LSN order:
// sorting the keys page<<32|ordinal keeps that order within each page
// (ordinals follow the log), and each page is pinned, redone and
// unpinned once.
//
// Recovery deliberately appends nothing and takes no checkpoint: its
// write cost must stay constant so that a crash during recovery,
// repeated any number of times, always converges (each attempt leaves
// no new durable debris for the next one to clean up). The first
// regular checkpoint after open — background, manual, or the one
// Close takes — seals the replayed window instead.
func (s *Store) recover(x *redoIndex) error {
	info, haveCkpt := s.wal.LastCheckpoint()
	keys := make([]uint64, 0, len(x.entries))
	for i, e := range x.entries {
		if x.committed[e.txn] && (!haveCkpt || e.lsn >= info.RedoLSN) {
			keys = append(keys, uint64(e.page)<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	var buf []byte
	for rest := keys; len(rest) > 0; {
		page := PageID(rest[0] >> 32)
		n := 1
		for n < len(rest) && PageID(rest[n]>>32) == page {
			n++
		}
		if err := s.redoPage(page, x.entries, rest[:n], &buf); err != nil {
			return err
		}
		rest = rest[n:]
	}
	s.recSegsScanned, s.recSegsSkipped = s.wal.RecoveryWindow()
	s.recRecords, s.recReplayed = x.scanned, len(keys)
	if x.scanned == 0 {
		// Fresh (or fully checkpointed empty) log: nothing to seal, so
		// the first checkpoint can report idle instead of running.
		s.ckptLastNext = s.wal.NextLSN()
	}
	return nil
}

// maxRedoRead caps one read-back of after-images: a run of records
// logged back to back is split at this many bytes.
const maxRedoRead = 64 << 10

// redoPage redoes page id. keys select, in LSN order, the window's
// committed records that change it; the page LSN shows which prefix of
// them the page already reflects, and the rest are applied in order
// with their after-images read back from the log into *buf. Records
// logged back to back (consecutive LSNs: adjacent frames in one
// segment) are read back in one piece, with the frame heads between
// their images, so a page filled by one transaction costs one read.
func (s *Store) redoPage(id PageID, entries []redoEntry, keys []uint64, buf *[]byte) error {
	if err := s.pager.EnsureAllocated(id); err != nil {
		return err
	}
	p, err := s.pool.Pin(id)
	if err != nil {
		return err
	}
	for len(keys) > 0 && entries[uint32(keys[0])].lsn <= p.LSN() {
		keys = keys[1:]
	}
	dirty := len(keys) > 0
	for len(keys) > 0 && err == nil {
		first := &entries[uint32(keys[0])]
		run, end := 1, first.off+int64(first.n)
		for ; run < len(keys); run++ {
			e := &entries[uint32(keys[run])]
			if e.lsn != first.lsn+uint64(run) || e.seg != first.seg || e.off+int64(e.n)-first.off > maxRedoRead {
				break
			}
			end = e.off + int64(e.n)
		}
		*buf = slices.Grow((*buf)[:0], int(end-first.off))[:end-first.off]
		if len(*buf) > 0 {
			if err = s.wal.readImage(int(first.seg), first.off, *buf); err != nil {
				break
			}
		}
		for _, k := range keys[:run] {
			e := &entries[uint32(k)]
			rec := LogRecord{LSN: e.lsn, Txn: e.txn, Kind: e.kind, RID: RID{Page: id, Slot: e.slot}}
			if e.n > 0 {
				rec.After = (*buf)[e.off-first.off : e.off-first.off+int64(e.n)]
			}
			if err = applyRedo(p, &rec); err != nil {
				break
			}
			p.SetLSN(e.lsn)
		}
		keys = keys[run:]
	}
	s.pool.Unpin(id, dirty, false)
	return err
}

func applyRedo(p *Page, rec *LogRecord) error {
	if rec.Txn == sysTxn {
		// System (compensation) records describe the post-abort state
		// of a slot; the pre-state at replay time may or may not carry
		// the aborted transaction's (never-replayed) effects, so they
		// apply tolerantly: delete-if-present, upsert otherwise.
		switch rec.Kind {
		case LogDelete:
			if err := p.Delete(rec.RID.Slot); err != nil && !errors.Is(err, ErrNoSuchRecord) {
				return fmt.Errorf("storage: redo sys delete %v lsn=%d: %w", rec.RID, rec.LSN, err)
			}
		case LogInsert, LogUpdate:
			if err := p.Update(rec.RID.Slot, rec.After); err != nil {
				if !errors.Is(err, ErrNoSuchRecord) {
					return fmt.Errorf("storage: redo sys upsert %v lsn=%d: %w", rec.RID, rec.LSN, err)
				}
				if err := p.InsertAt(rec.RID.Slot, rec.After); err != nil {
					return fmt.Errorf("storage: redo sys insert %v lsn=%d: %w", rec.RID, rec.LSN, err)
				}
			}
		}
		return nil
	}
	switch rec.Kind {
	case LogInsert:
		if err := p.InsertAt(rec.RID.Slot, rec.After); err != nil {
			return fmt.Errorf("storage: redo insert %v lsn=%d: %w", rec.RID, rec.LSN, err)
		}
	case LogUpdate:
		if err := p.Update(rec.RID.Slot, rec.After); err != nil {
			return fmt.Errorf("storage: redo update %v lsn=%d: %w", rec.RID, rec.LSN, err)
		}
	case LogDelete:
		if err := p.Delete(rec.RID.Slot); err != nil {
			return fmt.Errorf("storage: redo delete %v lsn=%d: %w", rec.RID, rec.LSN, err)
		}
	}
	return nil
}
