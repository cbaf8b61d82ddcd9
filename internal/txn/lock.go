package txn

import (
	"fmt"
	"sync"

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

type lockStripe struct {
	mu    sync.Mutex
	locks map[uint64]*lockState
}

type lockState struct {
	holders map[*Txn]LockMode
	queue   []*lockWaiter
}

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

// compatible reports whether t may be granted mode on ls.
func (ls *lockState) compatible(t *Txn, mode LockMode) bool {
	for h, hm := range ls.holders {
		if h == t {
			continue // upgrade handled by caller
		}
		if mode == LockShared && hm == LockShared {
			continue
		}
		// Conflict unless the holder is an ancestor (closed nesting).
		if !h.isAncestorOf(t) {
			return false
		}
	}
	return true
}

// heldByAncestor reports whether an ancestor of t holds the lock.
func (ls *lockState) heldByAncestor(t *Txn) bool {
	for h := range ls.holders {
		if h.isAncestorOf(t) {
			return true
		}
	}
	return false
}

func (lt *lockTable) acquire(t *Txn, res uint64, mode LockMode) error {
	st := lt.stripe(res)
	lt.lockStripe(st)
	ls := st.locks[res]
	if ls == nil {
		ls = &lockState{holders: make(map[*Txn]LockMode)}
		st.locks[res] = ls
	}
	// Already held at sufficient strength?
	if hm, ok := ls.holders[t]; ok {
		if hm == LockExclusive || mode == LockShared {
			st.mu.Unlock()
			return nil
		}
		// Upgrade S→X: must wait for other non-ancestor holders to go.
	}
	// Grant immediately when compatible, unless a queue has formed —
	// then join it for fairness. Two exceptions skip the queue: t
	// already holds the lock (re-entry), and an ancestor of t holds it
	// (closed nesting). A rule subtransaction reading state its
	// top-level wrote is let in past strangers waiting on that
	// top-level: its ancestor cannot commit before it does, so queueing
	// it there would make it a deadlock victim of its own tree.
	if ls.compatible(t, mode) &&
		(len(ls.queue) == 0 || ls.holders[t] != 0 || ls.heldByAncestor(t)) {
		waits := lt.lockWaits(ls)
		lt.grantLocked(ls, t, res, mode)
		if waits {
			lt.wfMu.Unlock()
		}
		st.mu.Unlock()
		return nil
	}
	// Must wait: park, then search for a cycle through the lock state
	// as it stands — the stripe is held, so t's blockers cannot
	// dissolve between the decision to wait and the search.
	w := &lockWaiter{t: t, ls: ls, res: res, mode: mode, grant: make(chan error, 1)}
	lt.wfMu.Lock()
	ls.queue = append(ls.queue, w)
	t.waiting.Store(w)
	var err error
	if lt.deadlockLocked(t) {
		err = fmt.Errorf("%w: txn %d requesting %v on %d", ErrDeadlock, t.id, mode, res)
	} else if t.Status() != Active {
		err = ErrWaitCancelled // resolved by another goroutine since Lock looked
	}
	if err != nil {
		ls.queue = ls.queue[:len(ls.queue)-1]
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
		for h, hm := range w.ls.holders {
			if h != t && !h.isAncestorOf(t) && (hm == LockExclusive || w.mode == LockExclusive) {
				blocker(h)
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
// for itself. The caller holds wfMu.
func (lt *lockTable) deadlockLocked(start *Txn) bool {
	seen := map[*Txn]bool{start: true}
	stack := []*Txn{start}
	cycle := false
	for len(stack) > 0 && !cycle {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		waitsFor(t, func(x *Txn) {
			cycle = cycle || x == start
			if !seen[x] {
				seen[x] = true
				stack = append(stack, x)
			}
		})
	}
	return cycle
}

// grantLocked adds the grant to the state and t's held set. The caller
// holds the stripe owning res, and wfMu if ls has waiters.
func (lt *lockTable) grantLocked(ls *lockState, t *Txn, res uint64, mode LockMode) {
	if cur, ok := ls.holders[t]; !ok || mode > cur {
		ls.holders[t] = mode
	}
	t.heldMu.Lock()
	t.held.raise(res, mode)
	t.heldMu.Unlock()
}

// holds reports whether t already holds res at mode or stronger.
func (t *Txn) holds(res uint64, mode LockMode) bool {
	t.heldMu.Lock()
	defer t.heldMu.Unlock()
	return t.held.mode(res) >= mode
}

// heldSet is the locks a transaction holds: resource → strongest mode
// granted. The first few live in the transaction itself — a rule
// subtransaction rarely takes more — the rest in a map.
type heldSet struct {
	n   int
	few [2]struct {
		res  uint64
		mode LockMode
	}
	more map[uint64]LockMode
}

func (h *heldSet) mode(res uint64) LockMode {
	for _, l := range h.few[:h.n] {
		if l.res == res {
			return l.mode
		}
	}
	return h.more[res]
}

// raise records res as held at mode, unless it is held more strongly.
func (h *heldSet) raise(res uint64, mode LockMode) {
	for i := range h.few[:h.n] {
		if l := &h.few[i]; l.res == res {
			l.mode = max(l.mode, mode)
			return
		}
	}
	if cur, ok := h.more[res]; ok || h.n == len(h.few) {
		if h.more == nil {
			h.more = make(map[uint64]LockMode)
		}
		h.more[res] = max(cur, mode)
		return
	}
	h.few[h.n].res, h.few[h.n].mode = res, mode
	h.n++
}

func (h *heldSet) each(fn func(res uint64, mode LockMode)) {
	for _, l := range h.few[:h.n] {
		fn(l.res, l.mode)
	}
	for res, mode := range h.more {
		fn(res, mode)
	}
}

// takeHeld empties t's held set and returns what it held.
func (t *Txn) takeHeld() heldSet {
	t.heldMu.Lock()
	defer t.heldMu.Unlock()
	held := t.held
	t.held = heldSet{}
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
			for i, q := range ls.queue {
				if q == w {
					ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
					break
				}
			}
			t.waiting.Store(nil)
			lt.wakeLocked(ls, w.res)
			lt.wfMu.Unlock()
			w.grant <- ErrWaitCancelled
		}
		st.mu.Unlock()
	}

	held := t.takeHeld()
	held.each(func(res uint64, _ LockMode) {
		st := lt.stripe(res)
		lt.lockStripe(st)
		defer st.mu.Unlock()
		ls := st.locks[res]
		if ls == nil {
			return
		}
		waits := lt.lockWaits(ls)
		delete(ls.holders, t)
		lt.wakeLocked(ls, res)
		if waits {
			lt.wfMu.Unlock()
		}
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(st.locks, res)
		}
	})
}

// inherit transfers all locks held by child to parent (Moss rule on
// subtransaction commit).
func (lt *lockTable) inherit(child, parent *Txn) {
	held := child.takeHeld()
	held.each(func(res uint64, mode LockMode) {
		st := lt.stripe(res)
		lt.lockStripe(st)
		defer st.mu.Unlock()
		ls := st.locks[res]
		if ls == nil {
			return
		}
		waits := lt.lockWaits(ls)
		delete(ls.holders, child)
		// A parent that already holds the lock at least as strongly —
		// the child got it through the ancestor rule — gains nothing:
		// only the child's entry goes.
		if ls.holders[parent] < mode {
			ls.holders[parent] = mode
			parent.heldMu.Lock()
			parent.held.raise(res, mode)
			parent.heldMu.Unlock()
		}
		lt.wakeLocked(ls, res)
		if waits {
			lt.wfMu.Unlock()
		}
	})
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
		ls.queue = ls.queue[1:]
		var err error = ErrWaitCancelled
		if active {
			// Granted before the request is unparked: a resolver that
			// finds no parked request then finds the lock in the held set.
			lt.grantLocked(ls, w.t, res, w.mode)
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
	t.held.each(func(res uint64, mode LockMode) { out[res] = mode })
	return out
}

// Held reports the resources and modes t currently holds.
func (t *Txn) Held() map[uint64]LockMode { return t.m.locks.heldModes(t) }
