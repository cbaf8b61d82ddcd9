// Package txn implements the REACH transaction manager: flat and
// closed nested transactions, a strict two-phase lock manager with
// deadlock detection, and the commit/abort dependencies required by
// the detached causally dependent coupling modes (paper §3.2, §4).
//
// The commercial systems the REACH group tried first exposed neither
// transaction identifiers nor commit/abort control (§4); this manager
// exposes exactly those hooks: listeners on BOT/EOT/commit/abort,
// dependency edges between transactions, and nested subtransactions
// for parallel rule execution.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic" //lint:allow rawatomics transaction-id allocator and lock-free status/tag/pin/attachment reads, not metrics
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Status is the lifecycle state of a transaction.
type Status int

// Transaction states.
const (
	Active Status = iota + 1
	Committed
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Errors returned by transaction operations.
var (
	ErrNotActive        = errors.New("txn: transaction not active")
	ErrChildrenActive   = errors.New("txn: subtransactions still active")
	ErrDeadlock         = errors.New("txn: deadlock detected")
	ErrDependencyFailed = errors.New("txn: commit dependency not satisfied")
	// ErrWaitCancelled fails a pending lock request whose transaction
	// was resolved by another goroutine while it waited. It wraps
	// ErrNotActive so existing errors.Is checks keep matching.
	ErrWaitCancelled = fmt.Errorf("txn: lock wait cancelled: %w", ErrNotActive)
)

// IsRetriable reports whether err is a transient scheduling failure a
// fresh transaction attempt may not hit again: a detected deadlock
// (this transaction was chosen to break the cycle) or a cancelled
// lock wait. Permanent failures — constraint violations, dependency
// outcomes, storage errors — are not retriable. The rule executor
// consults this to decide between backoff-retry and the circuit
// breaker.
func IsRetriable(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrWaitCancelled)
}

// Listener observes transaction lifecycle events. The rule engine
// registers one to raise flow-control events and to run deferred
// rules at EOT.
type Listener interface {
	// AfterBegin is called when a transaction becomes active.
	AfterBegin(t *Txn)
	// BeforeCommit is called for top-level transactions after their
	// work completes but before the commit decision (the paper's EOT).
	// Returning an error aborts the transaction.
	BeforeCommit(t *Txn) error
	// AfterCommit is called once a transaction has committed.
	AfterCommit(t *Txn)
	// AfterAbort is called once a transaction has aborted.
	AfterAbort(t *Txn)
}

// Manager creates and tracks transactions.
type Manager struct {
	// nextID is written by every begin, top-level and nested. Padding
	// on both sides gives it a line of its own: the fields below are read
	// by every Lock, Commit and BeginChildIn, and a begin on one core
	// must not take their line from another.
	_      [cacheLine]byte
	nextID atomic.Uint64
	_      [cacheLine]byte

	locks    *lockTable
	listener Listener

	// admission, when installed, gates BeginAdmitted: the overload
	// governor's writer choke point. Plain Begin bypasses it — rule
	// transactions and internal work are never admission-controlled
	// (shedding them is the engine's job, at its own choke points).
	admission func() error

	// commitFunc/abortFunc are installed by the database layer to make
	// top-level outcomes durable.
	commitFunc func(t *Txn) error
	abortFunc  func(t *Txn) error

	// Top-level outcome counters and lifetime histogram. Standalone
	// by default; Instrument rebinds them into a shared registry.
	commits *obs.Counter
	aborts  *obs.Counter
	durs    *obs.Histogram

	// activeTop counts live top-level transactions — the governor's
	// cheapest load signal.
	activeTop *obs.Gauge

	// Latency attribution: time blocked on lock grants (by requested
	// mode) and time inside the durability callback at commit.
	lockWaitS  *obs.Histogram
	lockWaitX  *obs.Histogram
	durableDur *obs.Histogram

	// tracer, when set, receives lock-wait and wal-fsync spans for
	// transactions tagged with a trace ID (SetTrace).
	tracer *obs.Tracer

	// clk stamps transaction begin times and measures lifetimes.
	// Real by default; SetClock injects a virtual clock in tests.
	clk clock.Clock
}

// NewManager returns a transaction manager.
func NewManager() *Manager {
	m := &Manager{
		commits:    new(obs.Counter),
		aborts:     new(obs.Counter),
		durs:       new(obs.Histogram),
		activeTop:  new(obs.Gauge),
		lockWaitS:  new(obs.Histogram),
		lockWaitX:  new(obs.Histogram),
		durableDur: new(obs.Histogram),
		clk:        clock.NewReal(),
	}
	m.locks = newLockTable()
	return m
}

// SetClock replaces the manager's time source. Call it before the
// first Begin; transaction timestamps and lifetime metrics then come
// from c, which makes them deterministic under a virtual clock.
func (m *Manager) SetClock(c clock.Clock) { m.clk = c }

// Instrument binds the manager's counters into reg. Call it before
// the first Begin.
func (m *Manager) Instrument(reg *obs.Registry) {
	const name, help = "reach_txn_total", "Top-level transaction outcomes."
	m.commits = reg.Counter(name, help, "outcome", "commit")
	m.aborts = reg.Counter(name, help, "outcome", "abort")
	m.durs = reg.Histogram("reach_txn_duration_seconds",
		"Top-level transaction lifetime, begin to resolution.")
	m.activeTop = reg.Gauge("reach_txn_active",
		"Live (unresolved) top-level transactions.")
	const lwName, lwHelp = "reach_lock_wait_seconds",
		"Time blocked waiting for a lock grant, by requested mode."
	m.lockWaitS = reg.Histogram(lwName, lwHelp, "mode", "S")
	m.lockWaitX = reg.Histogram(lwName, lwHelp, "mode", "X")
	m.durableDur = reg.Histogram("reach_txn_durable_commit_seconds",
		"Durability callback latency (WAL append + fsync) at top-level commit.")
}

// SetTracer installs the tracer that receives lock-wait and wal-fsync
// spans for transactions carrying a trace ID. Call it before the
// first Begin.
func (m *Manager) SetTracer(tr *obs.Tracer) { m.tracer = tr }

// observeLockWait records time spent blocked on a lock grant.
func (m *Manager) observeLockWait(mode LockMode, d time.Duration) {
	if mode == LockShared {
		m.lockWaitS.Observe(d)
	} else {
		m.lockWaitX.Observe(d)
	}
}

// span records a stage on the nearest trace in t's ancestry, if any
// and a tracer is installed. Callers must not hold any mu on the
// ancestry chain.
func (m *Manager) span(t *Txn, stage, key string, start time.Time, dur time.Duration) {
	if m.tracer == nil {
		return
	}
	if id := t.traceUp(); id != 0 {
		m.tracer.Span(id, stage, key, start, dur)
	}
}

// traceUp returns the trace ID of t or its nearest traced ancestor:
// a rule subtransaction carries the trace while its user-submitted
// top-level parent does not.
func (t *Txn) traceUp() uint64 {
	for ; t != nil; t = t.parent {
		if id := t.TraceID(); id != 0 {
			return id
		}
	}
	return 0
}

// SetListener installs the lifecycle listener (nil allowed).
func (m *Manager) SetListener(l Listener) { m.listener = l }

// SetDurability installs the callbacks invoked to make a top-level
// commit or abort durable (typically wired to the storage layer).
func (m *Manager) SetDurability(commit, abort func(t *Txn) error) {
	m.commitFunc = commit
	m.abortFunc = abort
}

// Slot names a fixed attachment point on a transaction: one per layer
// that hangs state on every transaction it touches, so those layers
// reach it with one atomic load — no mutex, map or boxing. Everything
// else goes through SetValue/Value.
type Slot int

// Attachment slots.
const (
	SlotObjects Slot = iota // oodb: the top-level write set
	SlotRules               // eca: deferred queue and occurrence list of the top-level transaction
	numSlots
)

// Txn is a transaction: top-level when Parent is nil, otherwise a
// closed nested subtransaction whose effects become permanent only if
// every ancestor commits.
type Txn struct {
	m       *Manager
	id      uint64
	parent  *Txn
	started time.Time // top-level only: feeds the lifetime histogram

	// status is written under mu and read without it (Status, the lock
	// table's wake path).
	status atomic.Int32
	// tag is the owner-defined mark of BeginTagged/SetTag.
	tag atomic.Int32
	// trace is the event-trace ID this transaction's lock-wait and
	// commit latency attribute to (0 when untraced).
	trace atomic.Uint64
	// wait is t's one lock request that can be parked, and waiting
	// points to it while it is, nil otherwise: set under the request's
	// stripe and the lock table's wfMu, read by the deadlock search and
	// by a resolver on another goroutine.
	wait    lockWaiter
	waiting atomic.Pointer[lockWaiter]

	mu sync.Mutex
	// kids heads the list of active children, linked through their
	// sibNext/sibPrev under this mutex. A child unlinks itself when it
	// resolves, so a long transaction firing N rules tracks only the
	// ones still running.
	kids             *Txn
	sibNext, sibPrev *Txn
	// aborting is set when an abort of t begins: from then on no child
	// of t begins, and none commits into it.
	aborting bool
	// pinned marks a transaction something still reaches after it
	// resolves (Pin), so that its owner must not reuse its memory. It is
	// atomic, not guarded by mu; it sits here to fill aborting's padding.
	pinned atomic.Bool
	// undo is the before-images run LIFO on abort, t's own and those
	// its committed children handed up. It starts on undoInline (a
	// top-level transaction's on topTxn.undo).
	undo       []undoRecord
	undoInline [childUndo]undoRecord
	done       chan struct{}
	err        error

	// deps are commit-time dependencies: this transaction may commit
	// only once each dep.on reaches the outcome dep.want.
	deps []dependency

	// vals are the SetValue attachments; slots the fixed ones.
	vals  map[any]any
	slots [numSlots]atomic.Value

	// held is the set of locks this transaction holds, guarded by
	// heldMu — its own mutex, not mu, because the
	// lock table updates it while holding a stripe and must never
	// entangle stripe order with transaction-state order. heldMu is a
	// leaf: nothing is acquired while it is held.
	heldMu     sync.Mutex
	held       heldSet
	heldInline [childHeld]heldLock
}

// Inline room, from what the transactions of the yardstick's four
// workloads log and lock: a rule subtransaction writes at most one
// attribute and takes at most two locks; a top-level transaction holds
// at most eight locks (plant-contended; plant-durable five, the others
// two) and logs at most seven before-images, more than six in under a
// tenth of any workload's transactions — a record is 40 bytes, which
// every transaction carries as garbage. Past these a transaction's log
// or held set grows on the heap.
const (
	childUndo = 1
	childHeld = 2
	topUndo   = 6
	topHeld   = 8
)

// topTxn is a top-level transaction with the room it typically fills:
// its log and held set start here, so a transaction begins, writes,
// locks and commits with the one allocation.
type topTxn struct {
	Txn
	undo [topUndo]undoRecord
	held [topHeld]heldLock
}

// An Undoer reverts a change when the transaction that made it aborts:
// Undo puts the before-image old back into slot idx. What a slot is
// belongs to the implementer — an object's attribute index, say.
type Undoer interface {
	Undo(idx int, old any)
}

// A Writer is an Undoer that also makes the change its Undo reverts:
// Write changes slot idx to v and returns the before-image that
// Undo(idx, old) puts back, and whether there is a change to undo.
type Writer interface {
	Undoer
	Write(idx int, v any) (old any, changed bool, err error)
}

// undoRecord is one before-image: target.Undo(idx, old) reverts it.
type undoRecord struct {
	target Undoer
	idx    int
	old    any
}

// undoFunc is an OnAbort compensation as an Undoer.
type undoFunc func()

func (f undoFunc) Undo(int, any) { f() }

type dependency struct {
	on   *Txn
	want Status
}

// SetAdmission installs the admission gate consulted by
// BeginAdmitted (nil removes it). Call it before the first Begin.
func (m *Manager) SetAdmission(f func() error) { m.admission = f }

// ActiveTopLevel reports the number of live top-level transactions.
func (m *Manager) ActiveTopLevel() int64 { return m.activeTop.Value() }

// Begin starts a new top-level transaction.
func (m *Manager) Begin() *Txn { return m.BeginTagged(0) }

// BeginAdmitted starts a top-level transaction after consulting the
// admission gate: under overload it blocks up to the governor's
// admission deadline and then fails with the gate's typed error
// (governor.ErrOverloaded — retry with backoff) without consuming a
// transaction ID. With no gate installed it is Begin.
func (m *Manager) BeginAdmitted() (*Txn, error) {
	if f := m.admission; f != nil {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return m.Begin(), nil
}

// BeginTagged starts a top-level transaction whose Tag is set before
// lifecycle listeners observe it. The rule engine uses it to
// distinguish rule transactions from user-submitted ones.
func (m *Manager) BeginTagged(tag int32) *Txn {
	top := &topTxn{}
	t := &top.Txn
	t.m, t.id, t.started = m, m.nextID.Add(1), m.clk.Now()
	t.undo, t.held.locks = top.undo[:0], top.held[:0]
	t.status.Store(int32(Active))
	t.tag.Store(tag)
	m.activeTop.Add(1)
	if m.listener != nil {
		m.listener.AfterBegin(t)
	}
	return t
}

// BeginChild starts a nested subtransaction of t.
func (t *Txn) BeginChild() (*Txn, error) {
	c := new(Txn)
	if err := t.BeginChildIn(c); err != nil {
		return nil, err
	}
	return c, nil
}

// BeginChildIn starts a nested subtransaction of t in c, a zero Txn the
// caller owns and never copies: the rule engine keeps a firing's
// subtransaction in the firing, so that beginning it allocates nothing.
// c may be memory an earlier subtransaction occupied, zeroed once it
// resolved, provided nothing can reach that one any more: it is not
// Pinned, and its parent reported ChildrenReclaimable after it resolved.
func (t *Txn) BeginChildIn(c *Txn) error {
	c.m, c.parent = t.m, t
	c.undo, c.held.locks = c.undoInline[:0], c.heldInline[:0]
	c.status.Store(int32(Active))
	t.mu.Lock()
	if t.Status() != Active || t.aborting {
		t.mu.Unlock()
		return ErrNotActive
	}
	c.id = t.m.nextID.Add(1)
	if c.sibNext = t.kids; c.sibNext != nil {
		c.sibNext.sibPrev = c
	}
	t.kids = c
	t.mu.Unlock()
	if t.m.listener != nil {
		t.m.listener.AfterBegin(c)
	}
	return nil
}

// unlinkChild removes the child c, resolved or aborting, from t's
// active list.
func (t *Txn) unlinkChild(c *Txn) {
	t.mu.Lock()
	if c.sibPrev != nil {
		c.sibPrev.sibNext = c.sibNext
	} else if t.kids == c {
		t.kids = c.sibNext
	}
	if c.sibNext != nil {
		c.sibNext.sibPrev = c.sibPrev
	}
	c.sibNext, c.sibPrev = nil, nil
	t.mu.Unlock()
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Parent returns the enclosing transaction, nil for top-level.
func (t *Txn) Parent() *Txn { return t.parent }

// IsTop reports whether t is a top-level transaction.
func (t *Txn) IsTop() bool { return t.parent == nil }

// Top returns the top-level ancestor of t (t itself when top-level).
func (t *Txn) Top() *Txn {
	for t.parent != nil {
		t = t.parent
	}
	return t
}

// Depth reports the nesting depth (0 for top-level).
func (t *Txn) Depth() int {
	d := 0
	for p := t.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Status reports the current lifecycle state.
func (t *Txn) Status() Status {
	st := Status(t.status.Load())
	if poisonBuild && st == poisonStatus {
		panic(fmt.Sprintf("txn: status of a reclaimed transaction (id %#x)", t.id))
	}
	return st
}

// Pin marks t, and each of its ancestors, as reachable after it
// resolves: an event occurrence raised in t outlives the raise (the
// engine's deferred queue, detached executor or a composer keeps it),
// and reads its outcome, its ID and its top-level ancestor through t.
// An ancestor is pinned too because those reads walk up from t. Pin is
// final for the transaction's lifetime.
func (t *Txn) Pin() {
	for ; t != nil && !t.pinned.Load(); t = t.parent {
		t.pinned.Store(true)
	}
}

// Pinned reports whether Pin was called on t or on a descendant of t.
func (t *Txn) Pinned() bool { return t.pinned.Load() }

// ChildrenReclaimable reports whether t's resolved children can no
// longer be reached by the transaction manager, so that an owner of
// their memory (BeginChildIn) may zero it and begin other children
// there, provided no child is Pinned. Call it after the children
// resolved. It holds when t is active, no abort of t has begun — an
// abort cascades to the children it listed when it began, from its own
// goroutine — and no deadlock search is in flight: a search lists a
// transaction's active children and locks them one by one after it
// let go of the parent. A search that begins later cannot find a child
// that resolved before this call.
func (t *Txn) ChildrenReclaimable() bool {
	t.mu.Lock()
	ok := t.Status() == Active && !t.aborting
	t.mu.Unlock()
	return ok && t.m.locks.searches.Load() == 0
}

// Done returns a channel closed when the transaction resolves. The
// channel is created on first use: most subtransactions are never
// waited on.
func (t *Txn) Done() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.doneLocked()
}

// doneLocked is Done for a caller holding t.mu.
func (t *Txn) doneLocked() chan struct{} {
	if t.done == nil {
		t.done = make(chan struct{})
		if t.Status() != Active {
			close(t.done)
		}
	}
	return t.done
}

// resolveLocked records the outcome and wakes Done waiters; the caller
// holds t.mu.
func (t *Txn) resolveLocked(st Status) {
	t.status.Store(int32(st))
	if t.done != nil {
		close(t.done)
	}
}

// Err reports why the transaction aborted, nil otherwise.
func (t *Txn) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Wait blocks until the transaction resolves and returns its outcome.
func (t *Txn) Wait() Status {
	<-t.Done()
	return t.Status()
}

// Write has target change slot idx to v and logs the before-image in
// the same step, under t's mutex: if the transaction aborts,
// target.Undo(idx, old) runs, in LIFO order with every other
// compensation it owns, its committed children's included. An abort
// takes the log under that mutex, so it either finds the before-image
// or finds the change refused: once an abort of t has begun, Write
// changes nothing and returns ErrNotActive. The record is a value in
// the transaction's log, not a closure, and costs no allocation while
// the log fits its inline room.
func (t *Txn) Write(target Writer, idx int, v any) (old any, err error) {
	t.mu.Lock()
	if t.aborting {
		t.mu.Unlock()
		return nil, ErrNotActive
	}
	old, changed, err := target.Write(idx, v)
	if changed {
		t.undo = append(t.undo, undoRecord{target, idx, old})
	}
	t.mu.Unlock()
	return old, err
}

// OnAbort registers a compensation run (LIFO, among the before-images)
// if the transaction aborts: for undo that is not one slot's old value,
// such as an index entry or a catalog change.
func (t *Txn) OnAbort(fn func()) {
	t.mu.Lock()
	t.undo = append(t.undo, undoRecord{undoFunc(fn), 0, nil})
	t.mu.Unlock()
}

// SetValue attaches a value to the transaction under key.
func (t *Txn) SetValue(key, val any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.vals == nil {
		t.vals = make(map[any]any)
	}
	t.vals[key] = val
}

// Value retrieves a value attached with SetValue.
func (t *Txn) Value(key any) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vals[key]
}

// Attachment returns the value in slot s, nil when nothing is attached.
func (t *Txn) Attachment(s Slot) any { return t.slots[s].Load() }

// Attach stores v (a pointer: every store to a slot must have the same
// type) in slot s unless a value is already there, and returns the
// slot's value either way — concurrent first users agree on one.
func (t *Txn) Attach(s Slot, v any) any {
	if t.slots[s].CompareAndSwap(nil, v) {
		return v
	}
	return t.slots[s].Load()
}

// Tag reports the transaction's mark: 0 unless BeginTagged or SetTag
// set one. Its meaning belongs to whoever set it.
func (t *Txn) Tag() int32 { return t.tag.Load() }

// SetTag sets the transaction's mark.
func (t *Txn) SetTag(tag int32) { t.tag.Store(tag) }

// SetTrace associates an event-trace ID with this transaction; the
// manager then attributes lock waits and durable-commit latency to
// that trace as spans. The rule engine tags rule transactions with the
// triggering event's trace.
func (t *Txn) SetTrace(id uint64) { t.trace.Store(id) }

// TraceID reports the associated event-trace ID, 0 when untraced.
func (t *Txn) TraceID() uint64 { return t.trace.Load() }

// isAncestorOf reports whether t is a proper ancestor of other.
func (t *Txn) isAncestorOf(other *Txn) bool {
	for p := other.parent; p != nil; p = p.parent {
		if p == t {
			return true
		}
	}
	return false
}

// RequireCommit records that t may commit only if on commits
// (parallel and sequential detached causally dependent modes). on must
// be a top-level transaction.
func (t *Txn) RequireCommit(on *Txn) { t.require(on, Committed) }

// RequireAbort records that t may commit only if on aborts (exclusive
// detached causally dependent mode: the contingency commits only when
// the triggering transaction fails). on must be a top-level
// transaction.
func (t *Txn) RequireAbort(on *Txn) { t.require(on, Aborted) }

// require records that t may commit only once on has resolved to want.
// on holds its transaction resource until it resolves, and t's commit
// waits for it there as for any lock: deadlock detection sees the wait,
// and an abort of t cancels it. A subtransaction would hand the
// resource up to its parent at commit while its own status stayed
// Committed, so on must be top-level.
func (t *Txn) require(on *Txn, want Status) {
	if on.parent != nil {
		panic(fmt.Sprintf("txn: txn %d depends on subtransaction %d", t.id, on.id))
	}
	t.m.locks.own(on, txnSpace|on.id)
	t.mu.Lock()
	t.deps = append(t.deps, dependency{on: on, want: want})
	t.mu.Unlock()
}

// Lock acquires a lock on resource res in the given mode, blocking
// until granted. It returns ErrDeadlock when granting would create a
// wait cycle; the caller should abort. One goroutine at a time drives
// a transaction's Lock calls — parallel rules run as sibling
// subtransactions, each on its own — so a transaction has at most one
// parked request.
func (t *Txn) Lock(res uint64, mode LockMode) error {
	if t.Status() != Active {
		return ErrNotActive
	}
	lt := t.m.locks
	if !lt.bypass && t.holds(res, mode) {
		return nil // what acquire would decide from the stripe's holder entry
	}
	return lt.acquire(t, res, mode)
}

// Commit completes the transaction successfully.
//
// For a top-level transaction the order is: EOT listener (deferred
// rules), active-children check, commit-dependency wait, durability
// callback, state change, lock release, commit listener. For a
// subtransaction: state change and lock inheritance by the parent.
func (t *Txn) Commit() error {
	if t.Status() != Active {
		return ErrNotActive
	}
	top := t.parent == nil
	if l := t.m.listener; top && l != nil {
		if err := l.BeforeCommit(t); err != nil {
			_ = t.Abort() // secondary to the EOT error returned below
			return fmt.Errorf("txn %d: EOT processing: %w", t.id, err)
		}
	}

	t.mu.Lock()
	if st := t.Status(); st != Active || t.aborting { // resolved during EOT processing
		t.mu.Unlock()
		if st != Committed {
			return ErrNotActive
		}
		return nil
	}
	if t.kids != nil {
		t.mu.Unlock()
		return ErrChildrenActive
	}
	if cf := t.m.commitFunc; len(t.deps) > 0 || top && cf != nil {
		deps := t.deps
		t.mu.Unlock()

		// Wait for causal dependencies (outside t.mu: the trigger may
		// take arbitrarily long to resolve), each on its trigger's
		// transaction resource.
		for _, d := range deps {
			err := t.m.locks.acquire(t, txnSpace|d.on.id, LockShared)
			if got := d.on.Status(); err == nil && got != d.want {
				err = fmt.Errorf("%w: txn %d requires txn %d %v, got %v",
					ErrDependencyFailed, t.id, d.on.id, d.want, got)
			}
			if err != nil {
				_ = t.Abort() // secondary to the error returned below
				return err
			}
		}
		if top && cf != nil {
			start := t.m.clk.Now()
			err := cf(t)
			dur := t.m.clk.Since(start)
			t.m.durableDur.Observe(dur)
			t.m.span(t, "wal-fsync", "", start, dur)
			if err != nil {
				_ = t.Abort() // secondary to the durable-commit error returned below
				return fmt.Errorf("txn %d: durable commit: %w", t.id, err)
			}
		}

		t.mu.Lock()
		if t.Status() != Active || t.aborting {
			t.mu.Unlock()
			return ErrNotActive
		}
	}
	if top {
		t.resolveLocked(Committed)
		clear(t.undo) // the log's inline room must not keep before-images alive
		t.undo = nil
		t.mu.Unlock()
		t.m.commits.Inc()
		t.m.activeTop.Add(-1)
		t.m.durs.Observe(t.m.clk.Since(t.started))
		t.m.locks.releaseAll(t)
	} else if err := t.handUp(); err != nil {
		return err
	}
	if l := t.m.listener; l != nil {
		l.AfterCommit(t)
	}
	return nil
}

// handUp commits the child t into its parent. Closed nesting: the
// parent inherits the child's undo records and its locks — the child's
// effects become permanent only if every ancestor commits. The caller
// holds t.mu, which handUp releases.
//
// The records change hands under both mutexes (child before parent,
// the only order in which two transaction mutexes are ever held), in
// the critical section that resolves the child, so the parent's abort
// either comes later and runs them or began earlier and makes the
// child abort itself instead: no record is lost, and a child's undo
// always runs before its parent's. The locks follow outside the
// mutexes; a parent released meanwhile takes none (inherit). The child
// leaves the active list last, so the parent cannot commit past a
// half-merged one.
func (t *Txn) handUp() error {
	p := t.parent
	p.mu.Lock()
	if p.aborting {
		p.mu.Unlock()
		t.mu.Unlock()
		_ = t.abort(fmt.Errorf("txn: parent %d aborted", p.id)) // the commit's answer is ErrNotActive either way
		return ErrNotActive
	}
	t.resolveLocked(Committed)
	p.undo = append(p.undo, t.undo...)
	clear(t.undo)
	t.undo = nil
	p.mu.Unlock()
	t.mu.Unlock()
	t.m.locks.inherit(t, p)
	p.unlinkChild(t)
	return nil
}

// Abort rolls the transaction back: active children are aborted
// first, compensations run LIFO, the durability callback undoes
// storage effects (top-level), locks are released.
func (t *Txn) Abort() error {
	return t.abort(nil)
}

// AbortWith aborts recording cause as the transaction error.
func (t *Txn) AbortWith(cause error) error {
	return t.abort(cause)
}

func (t *Txn) abort(cause error) error {
	t.mu.Lock()
	if t.Status() != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	if t.aborting {
		// Another goroutine is aborting t: return once it has, so that a
		// parent cascading its abort runs its own undo after t's.
		done := t.doneLocked()
		t.mu.Unlock()
		<-done
		return ErrNotActive
	}
	t.aborting = true
	var children []*Txn
	for c := t.kids; c != nil; c = c.sibNext {
		children = append(children, c)
	}
	t.mu.Unlock()

	for _, c := range children {
		_ = c.abort(fmt.Errorf("txn: parent %d aborted", t.id)) // cascade: child may already be resolved
	}

	t.mu.Lock()
	undo := t.undo
	t.undo = nil
	t.mu.Unlock()
	for i := len(undo) - 1; i >= 0; i-- {
		r := &undo[i]
		r.target.Undo(r.idx, r.old)
	}
	clear(undo)

	if t.parent == nil {
		if af := t.m.abortFunc; af != nil {
			if err := af(t); err != nil {
				// Storage-level abort failed; surface it but still mark
				// the transaction aborted so waiters resolve.
				cause = errors.Join(cause, err)
			}
		}
	}

	// A child leaves the active list before it resolves: whoever sees
	// it aborted — a concurrent Abort returning, Done, Status — may
	// commit the parent at once. Its undo has run, so a parent
	// resolving first loses none of it.
	if t.parent != nil {
		t.parent.unlinkChild(t)
	}
	t.mu.Lock()
	t.err = cause
	t.resolveLocked(Aborted)
	t.mu.Unlock()

	if t.parent == nil {
		t.m.aborts.Inc()
		t.m.activeTop.Add(-1)
		t.m.durs.Observe(t.m.clk.Since(t.started))
	}
	t.m.locks.releaseAll(t)
	if l := t.m.listener; l != nil {
		l.AfterAbort(t)
	}
	return nil
}
