package txn

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/obs"
)

// LockMode is the strength of a lock request.
type LockMode int

// Lock modes.
const (
	LockShared LockMode = iota + 1
	LockExclusive
)

// String implements fmt.Stringer.
func (m LockMode) String() string {
	if m == LockShared {
		return "S"
	}
	return "X"
}

// lockStripes is the number of independent lock-table partitions. A
// power of two so the stripe index is a shift of the mixed hash.
const lockStripes = 64

// inlineHolders is how many holders a lock head keeps without
// allocating: a writer, or a few readers of one object. More readers
// spill to the heap.
const inlineHolders = 4

// cacheLine is the size a stripe is padded to, so that two stripes'
// mutexes do not share a line.
const cacheLine = 64

// lockTable is a strict two-phase lock manager with Moss-style rules
// for nested transactions: a subtransaction may acquire a lock whose
// conflicting holders are all its ancestors, and on subtransaction
// commit its locks are inherited by the parent.
//
// The table is striped: resources hash across lockStripes partitions,
// each with its own mutex, so grants and releases on unrelated
// resources never serialize. Deadlock detection is global and keeps no
// graph of its own: when a request must wait, waitsFor derives the
// edges from the holders, the queues and the transaction tree as they
// stand, and the requester that would close a cycle receives
// ErrDeadlock. Every lock state the search can reach has a parked
// waiter, and every change to a state with waiters happens under wfMu,
// so the search runs under wfMu alone. A request granted at once and
// the release of a lock nobody waits for leave wfMu alone.
//
// An access allocates nothing in the steady state: a resource's lock
// head is its stripe's spare, if it has one, and becomes the spare
// again, zeroed, when its last holder and waiter leave; holders live in
// the head, the parked request in its transaction, the held set in the
// transaction too. One spare per stripe is the free list: on the four
// yardstick workloads, keeping up to 2, 4 or 8 emptied heads per stripe
// saves no allocation over one, and every head kept is live heap
// (128 bytes).
//
// Lock order: stripe mutex → wfMu → Txn.mu. No two stripe mutexes are
// ever held together.
type lockTable struct {
	stripes [lockStripes]lockStripe

	// wfMu guards every lock state with a non-empty queue and
	// Txn.waiting.
	wfMu sync.Mutex

	// contention counts stripe-mutex acquisitions that found the stripe
	// already locked. Standalone by default; rebound by Instrument.
	contention *obs.Counter

	// bypass, set by the equivalence tests only, routes every request
	// past the short-cuts (held-lock re-entry, wfMu skipped on states
	// nobody waits on) so their outcomes can be compared with the full
	// path's.
	bypass bool
}

// lockStripe is one partition of the table, padded to a cache line.
type lockStripe struct {
	stripeState
	_ [cacheLine - unsafe.Sizeof(stripeState{})%cacheLine]byte
}

type stripeState struct {
	mu    sync.Mutex
	locks map[uint64]*lockState
	spare *lockState // zeroed, nil when none
}

// lockState is the lock head of one resource: who holds it in which
// mode, and who waits for it, in order. holders starts on inline and
// spills to the heap past inlineHolders. A transaction holds a
// resource at most once, at the strongest mode granted.
type lockState struct {
	holders []lockHolder
	inline  [inlineHolders]lockHolder
	queue   []*lockWaiter
}

type lockHolder struct {
	t    *Txn
	mode LockMode
}

// lockWaiter is a parked request. Each transaction has one, Txn.wait,
// reused for every request it parks: one goroutine at a time drives a
// transaction's Lock calls, so it parks at most one request at a time.
type lockWaiter struct {
	t     *Txn
	ls    *lockState
	res   uint64
	mode  LockMode
	grant chan error
}

func newLockTable() *lockTable {
	lt := &lockTable{contention: new(obs.Counter)}
	for i := range lt.stripes {
		lt.stripes[i].locks = make(map[uint64]*lockState)
	}
	return lt
}

// stripe selects the partition owning res. Fibonacci mixing spreads
// sequential OIDs (the common allocation pattern) across stripes.
func (lt *lockTable) stripe(res uint64) *lockStripe {
	return &lt.stripes[(res*0x9E3779B97F4A7C15)>>(64-6)]
}

// lockStripe locks st, counting the acquisitions that contended.
func (lt *lockTable) lockStripe(st *lockStripe) {
	if st.mu.TryLock() {
		return
	}
	lt.contention.Inc()
	st.mu.Lock()
}

// head returns the lock head of res, taking the spare when res has
// none. The caller holds st.
func (st *lockStripe) head(res uint64) *lockState {
	if ls := st.locks[res]; ls != nil {
		return ls
	}
	ls := st.spare
	if ls != nil {
		st.spare = nil
	} else {
		ls = new(lockState)
	}
	ls.holders = ls.inline[:0]
	st.locks[res] = ls
	return ls
}

// retire removes the head of res from the stripe once nobody holds or
// waits for it, and keeps it, zeroed, as the spare if there is none.
// The queue keeps its backing array, cleared. The caller holds st.
func (st *lockStripe) retire(res uint64, ls *lockState) {
	if len(ls.holders) > 0 || len(ls.queue) > 0 {
		return
	}
	delete(st.locks, res)
	if st.spare == nil {
		queue := ls.queue[:0]
		clear(queue[:cap(queue)])
		*ls = lockState{queue: queue}
		st.spare = ls
	}
}

// lockWaits takes wfMu when ls has waiters, whose waits-for edges a
// change to ls may alter, and reports whether it did. The caller holds
// the stripe owning ls.
func (lt *lockTable) lockWaits(ls *lockState) bool {
	if len(ls.queue) == 0 && !lt.bypass {
		return false
	}
	lt.wfMu.Lock()
	return true
}

// mode reports the mode t holds ls in, 0 when it holds none.
func (ls *lockState) mode(t *Txn) LockMode {
	for _, h := range ls.holders {
		if h.t == t {
			return h.mode
		}
	}
	return 0
}

// hold raises t's entry to mode, adding one if t holds nothing.
func (ls *lockState) hold(t *Txn, mode LockMode) {
	for i := range ls.holders {
		if h := &ls.holders[i]; h.t == t {
			h.mode = max(h.mode, mode)
			return
		}
	}
	ls.holders = append(ls.holders, lockHolder{t, mode})
}

// drop removes t's entry, if any.
func (ls *lockState) drop(t *Txn) {
	for i, h := range ls.holders {
		if h.t == t {
			ls.holders = slices.Delete(ls.holders, i, i+1)
			return
		}
	}
}

// compatible reports whether t may be granted mode on ls.
func (ls *lockState) compatible(t *Txn, mode LockMode) bool {
	for _, h := range ls.holders {
		if h.t == t {
			continue // upgrade handled by caller
		}
		if mode == LockShared && h.mode == LockShared {
			continue
		}
		// Conflict unless the holder is an ancestor (closed nesting).
		if !h.t.isAncestorOf(t) {
			return false
		}
	}
	return true
}

// heldByAncestor reports whether an ancestor of t holds the lock.
func (ls *lockState) heldByAncestor(t *Txn) bool {
	for _, h := range ls.holders {
		if h.t.isAncestorOf(t) {
			return true
		}
	}
	return false
}

func (lt *lockTable) acquire(t *Txn, res uint64, mode LockMode) error {
	st := lt.stripe(res)
	lt.lockStripe(st)
	ls := st.head(res)
	// Already held at sufficient strength?
	held := ls.mode(t)
	if held == LockExclusive || held != 0 && mode == LockShared {
		st.mu.Unlock()
		return nil
	}
	// Upgrade S→X: must wait for other non-ancestor holders to go.
	//
	// Grant immediately when compatible, unless a queue has formed —
	// then join it for fairness. Two exceptions skip the queue: t
	// already holds the lock (re-entry), and an ancestor of t holds it
	// (closed nesting). A rule subtransaction reading state its
	// top-level wrote is let in past strangers waiting on that
	// top-level: its ancestor cannot commit before it does, so queueing
	// it there would make it a deadlock victim of its own tree.
	if ls.compatible(t, mode) &&
		(len(ls.queue) == 0 || held != 0 || ls.heldByAncestor(t)) {
		waits := lt.lockWaits(ls)
		granted := lt.grantLocked(ls, t, res, mode)
		if waits {
			lt.wfMu.Unlock()
		}
		st.retire(res, ls) // a fresh head stays empty when t was resolved meanwhile
		st.mu.Unlock()
		if !granted {
			return ErrNotActive
		}
		return nil
	}
	// Must wait: park, then search for a cycle through the lock state
	// as it stands — the stripe is held, so t's blockers cannot
	// dissolve between the decision to wait and the search.
	//
	// t's one waiter and its grant channel are reused park after park.
	// Every park consumes exactly one send: a parked request leaves the
	// queue only under the stripe and wfMu, by being granted or failed
	// in wakeLocked or cancelled in releaseAll, and whoever removes it
	// clears t.waiting and sends once; a request that fails the checks
	// below leaves the queue unseen and no send is owed. The channel is
	// therefore empty whenever t parks again.
	w := &t.wait
	if w.grant == nil {
		w.grant = make(chan error, 1)
	}
	lt.wfMu.Lock()
	w.t, w.ls, w.res, w.mode = t, ls, res, mode
	ls.queue = append(ls.queue, w)
	t.waiting.Store(w)
	var err error
	if lt.deadlockLocked(t) {
		err = fmt.Errorf("%w: txn %d requesting %v on %d", ErrDeadlock, t.id, mode, res)
	} else if t.Status() != Active {
		err = ErrWaitCancelled // resolved by another goroutine since Lock looked
	}
	if err != nil {
		ls.queue = slices.Delete(ls.queue, len(ls.queue)-1, len(ls.queue))
		t.waiting.Store(nil)
	}
	lt.wfMu.Unlock()
	st.mu.Unlock()
	if err != nil {
		return err
	}

	// Blocked: measure the wait and attribute it to the requester's
	// trace. The granted-immediately fast path above records nothing.
	start := t.m.clk.Now()
	err = <-w.grant
	wait := t.m.clk.Now().Sub(start)
	t.m.observeLockWait(mode, wait)
	t.m.span(t, "lock-wait", mode.String(), start, wait)
	return err
}

// waitsFor calls fn with each transaction t waits for now. A parked t
// waits for the holders of its resource that conflict with its request
// and are not its ancestors, and for the waiters queued ahead of it;
// and for those blockers' ancestors below t's own ancestry, which
// inherit the blockers' locks when they commit. A transaction with
// active children waits for each of them: it cannot commit before
// they resolve. The caller holds wfMu.
func waitsFor(t *Txn, fn func(*Txn)) {
	if w := t.waiting.Load(); w != nil {
		blocker := func(x *Txn) {
			fn(x)
			for x = x.parent; x != nil && x != t && !x.isAncestorOf(t); x = x.parent {
				fn(x)
			}
		}
		for _, h := range w.ls.holders {
			if h.t != t && !h.t.isAncestorOf(t) && (h.mode == LockExclusive || w.mode == LockExclusive) {
				blocker(h.t)
			}
		}
		for _, q := range w.ls.queue {
			if q == w {
				break
			}
			blocker(q.t)
		}
	}
	t.mu.Lock()
	for c := t.kids; c != nil; c = c.sibNext {
		fn(c)
	}
	t.mu.Unlock()
}

// deadlockLocked reports whether the parked start waits, transitively,
// for itself. The graphs are a handful of transactions: the visited set
// is a slice on the stack. The caller holds wfMu.
func (lt *lockTable) deadlockLocked(start *Txn) bool {
	var seenBuf, stackBuf [16]*Txn
	seen, stack := append(seenBuf[:0], start), append(stackBuf[:0], start)
	cycle := false
	for len(stack) > 0 && !cycle {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		waitsFor(t, func(x *Txn) {
			cycle = cycle || x == start
			if !slices.Contains(seen, x) {
				seen = append(seen, x)
				stack = append(stack, x)
			}
		})
	}
	return cycle
}

// grantLocked adds the grant to ls and to t's held set, unless t's
// locks have already been released — another goroutine resolved t —
// and reports whether it did. The caller holds the stripe owning res,
// and wfMu if ls has waiters.
func (lt *lockTable) grantLocked(ls *lockState, t *Txn, res uint64, mode LockMode) bool {
	t.heldMu.Lock()
	defer t.heldMu.Unlock()
	if t.held.released {
		return false
	}
	t.held.raise(res, mode)
	ls.hold(t, mode)
	return true
}

// holds reports whether t already holds res at mode or stronger.
func (t *Txn) holds(res uint64, mode LockMode) bool {
	t.heldMu.Lock()
	defer t.heldMu.Unlock()
	return t.held.mode(res) >= mode
}

// heldSet is the locks a transaction holds: resource → strongest mode
// granted, in grant order. locks starts on storage inside the
// transaction, sized for what its kind holds on the yardstick's
// workloads (childHeld, topHeld), and grows on the heap past that. A set
// longer than heldScan also keeps index, an open-addressing table of
// positions in locks, so a transaction taking thousands of locks finds
// each in constant time (a pointer: most sets never need one). released
// marks a set whose locks have gone back to the table — the transaction
// resolved — and that takes no more.
type heldSet struct {
	locks    []heldLock
	index    *heldIndex
	released bool
}

// heldIndex holds, per slot, 0 or a position in heldSet.locks + 1. Its
// length is a power of two, and it is at most half full.
type heldIndex []int32

type heldLock struct {
	res  uint64
	mode LockMode
}

// heldScan is the longest held set searched by a scan.
const heldScan = 16

// find returns the position of res in h.locks, -1 if absent.
func (h *heldSet) find(res uint64) int {
	if h.index == nil {
		for i := range h.locks {
			if h.locks[i].res == res {
				return i
			}
		}
		return -1
	}
	index := *h.index
	mask := len(index) - 1
	for s := heldSlot(res, mask); ; s = (s + 1) & mask {
		p := index[s]
		if p == 0 {
			return -1
		}
		if h.locks[p-1].res == res {
			return int(p - 1)
		}
	}
}

func (h *heldSet) mode(res uint64) LockMode {
	if i := h.find(res); i >= 0 {
		return h.locks[i].mode
	}
	return 0
}

// raise records res as held at mode, unless it is held more strongly.
func (h *heldSet) raise(res uint64, mode LockMode) {
	if i := h.find(res); i >= 0 {
		h.locks[i].mode = max(h.locks[i].mode, mode)
		return
	}
	h.locks = append(h.locks, heldLock{res, mode})
	n := len(h.locks)
	switch {
	case n <= heldScan:
	case h.index == nil || 2*n > len(*h.index):
		size := 4 * heldScan
		if h.index != nil {
			size = 4 * len(*h.index)
		}
		index := make(heldIndex, size)
		for i, l := range h.locks {
			index.place(l.res, i)
		}
		h.index = &index
	default:
		h.index.place(res, n-1)
	}
}

// place enters position pos of res.
func (x heldIndex) place(res uint64, pos int) {
	mask := len(x) - 1
	s := heldSlot(res, mask)
	for x[s] != 0 {
		s = (s + 1) & mask
	}
	x[s] = int32(pos + 1)
}

func heldSlot(res uint64, mask int) int {
	return int((res*0x9E3779B97F4A7C15)>>32) & mask
}

// takeHeld marks t's held set released and returns what it held.
func (t *Txn) takeHeld() []heldLock {
	t.heldMu.Lock()
	defer t.heldMu.Unlock()
	held := t.held.locks
	t.held = heldSet{released: true}
	return held
}

// releaseAll drops every lock held by t, fails t's parked request,
// and wakes compatible waiters.
func (lt *lockTable) releaseAll(t *Txn) {
	// A transaction resolved by another goroutine while parked must not
	// be granted the lock later: cancel the request.
	if w := t.waiting.Load(); w != nil {
		st := lt.stripe(w.res)
		lt.lockStripe(st)
		if t.waiting.Load() == w { // not granted meanwhile
			lt.wfMu.Lock()
			ls := w.ls
			i := slices.Index(ls.queue, w)
			ls.queue = slices.Delete(ls.queue, i, i+1)
			t.waiting.Store(nil)
			lt.wakeLocked(ls, w.res)
			lt.wfMu.Unlock()
			w.grant <- ErrWaitCancelled
			st.retire(w.res, ls)
		}
		st.mu.Unlock()
	}

	for _, l := range t.takeHeld() {
		st := lt.stripe(l.res)
		lt.lockStripe(st)
		if ls := st.locks[l.res]; ls != nil {
			waits := lt.lockWaits(ls)
			ls.drop(t)
			lt.wakeLocked(ls, l.res)
			if waits {
				lt.wfMu.Unlock()
			}
			st.retire(l.res, ls)
		}
		st.mu.Unlock()
	}
}

// inherit transfers all locks held by child to parent (Moss rule on
// subtransaction commit). A parent whose locks are already released —
// it aborted while the child committed — takes none: the child's
// entries simply go.
func (lt *lockTable) inherit(child, parent *Txn) {
	for _, l := range child.takeHeld() {
		st := lt.stripe(l.res)
		lt.lockStripe(st)
		if ls := st.locks[l.res]; ls != nil {
			waits := lt.lockWaits(ls)
			ls.drop(child)
			// A parent that already holds the lock at least as strongly —
			// the child got it through the ancestor rule — gains nothing:
			// only the child's entry goes.
			if ls.mode(parent) < l.mode {
				lt.grantLocked(ls, parent, l.res, l.mode)
			}
			lt.wakeLocked(ls, l.res)
			if waits {
				lt.wfMu.Unlock()
			}
			st.retire(l.res, ls)
		}
		st.mu.Unlock()
	}
}

// wakeLocked grants queued requests that are now compatible, in FIFO
// order, stopping at the first incompatible one. The caller holds the
// stripe owning res, and wfMu if ls has waiters.
func (lt *lockTable) wakeLocked(ls *lockState, res uint64) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		active := w.t.Status() == Active
		if active && !ls.compatible(w.t, w.mode) {
			return
		}
		ls.queue = slices.Delete(ls.queue, 0, 1)
		// Granted before the request is unparked: a resolver that finds
		// no parked request then finds the lock in the held set.
		var err error = ErrWaitCancelled
		if active && lt.grantLocked(ls, w.t, res, w.mode) {
			err = nil
		}
		w.t.waiting.Store(nil)
		w.grant <- err
	}
}

// heldModes reports the locks t currently holds (for tests and stats).
func (lt *lockTable) heldModes(t *Txn) map[uint64]LockMode {
	t.heldMu.Lock()
	defer t.heldMu.Unlock()
	out := make(map[uint64]LockMode)
	for _, l := range t.held.locks {
		out[l.res] = l.mode
	}
	return out
}

// Held reports the resources and modes t currently holds.
func (t *Txn) Held() map[uint64]LockMode { return t.m.locks.heldModes(t) }
