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
// resources never serialize. Deadlock detection stays global — blocked
// requests record edges in one waits-for graph guarded by wfMu, and
// the cycle check (DFS) runs under wfMu alone, so grant/release on
// other stripes never queue behind it. The requester that would close
// a cycle receives ErrDeadlock. Only a transaction that has queued
// (Txn.queued) can be named in that graph, so grants, inheritance and
// release of one that never waited leave wfMu alone.
//
// Lock order: a stripe mutex may be held when wfMu is taken; wfMu is
// never held while a stripe mutex is taken, and no two stripe mutexes
// are ever held together.
type lockTable struct {
	stripes [lockStripes]lockStripe

	// wfMu guards the global waits-for graph and the queued-on index.
	wfMu sync.Mutex
	// waitsFor maps a blocked transaction to the holders it waits on.
	waitsFor map[*Txn]map[*Txn]bool
	// waitingOn maps a blocked transaction to the resources it is
	// queued on, so releaseAll purges exactly those stripes instead of
	// scanning the whole table.
	waitingOn map[*Txn]map[uint64]bool

	// contention counts stripe-mutex acquisitions that found the stripe
	// already locked. Standalone by default; rebound by Instrument.
	contention *obs.Counter

	// bypass, set by the equivalence tests only, routes every request
	// past the short-cuts (held-lock re-entry, the queued flag) so their
	// outcomes can be compared with the full path's.
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
	mode  LockMode
	grant chan error
}

func newLockTable() *lockTable {
	lt := &lockTable{
		waitsFor:   make(map[*Txn]map[*Txn]bool),
		waitingOn:  make(map[*Txn]map[uint64]bool),
		contention: new(obs.Counter),
	}
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
	// (closed nesting). The ancestor bypass is load-bearing: a rule
	// subtransaction reading state its top-level wrote must not be
	// fair-queued behind strangers who are themselves blocked on that
	// top-level's lock — the top won't release until the child
	// finishes, a cycle invisible to the waits-for graph because the
	// top is waiting in code, not in the lock table.
	if ls.compatible(t, mode) &&
		(len(ls.queue) == 0 || ls.holders[t] != 0 || ls.heldByAncestor(t)) {
		lt.grantLocked(ls, t, res, mode)
		st.mu.Unlock()
		return nil
	}
	// Must wait: record waits-for edges in the global graph and check
	// for a cycle, all before the stripe is released so the blockers
	// cannot dissolve between the decision to wait and the edges
	// becoming visible to other requesters' cycle checks.
	blockers := make(map[*Txn]bool)
	for h := range ls.holders {
		if h != t && !h.isAncestorOf(t) {
			blockers[h] = true
		}
	}
	for _, w := range ls.queue {
		if w.t != t {
			blockers[w.t] = true
		}
	}
	lt.wfMu.Lock()
	lt.waitsFor[t] = blockers
	if lt.cycleFromLocked(t) {
		delete(lt.waitsFor, t)
		lt.wfMu.Unlock()
		st.mu.Unlock()
		return fmt.Errorf("%w: txn %d requesting %v on %d", ErrDeadlock, t.id, mode, res)
	}
	t.queued.Store(true)
	qr := lt.waitingOn[t]
	if qr == nil {
		qr = make(map[uint64]bool)
		lt.waitingOn[t] = qr
	}
	qr[res] = true
	lt.wfMu.Unlock()
	w := &lockWaiter{t: t, mode: mode, grant: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	st.mu.Unlock()

	// Blocked: measure the wait and attribute it to the requester's
	// trace. The granted-immediately fast path above records nothing.
	start := t.m.clk.Now()
	err := <-w.grant
	wait := t.m.clk.Now().Sub(start)
	t.m.observeLockWait(mode, wait)
	t.m.span(t, "lock-wait", mode.String(), start, wait)
	return err
}

// grantLocked adds the grant to the state and bookkeeping. The
// caller holds the stripe owning res.
func (lt *lockTable) grantLocked(ls *lockState, t *Txn, res uint64, mode LockMode) {
	if cur, ok := ls.holders[t]; !ok || mode > cur {
		ls.holders[t] = mode
	}
	t.heldMu.Lock()
	t.held.raise(res, mode)
	t.heldMu.Unlock()
	if lt.mayWait(t) {
		lt.clearWait(t, res)
	}
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

// mayWait reports whether the waits-for graph or the queued-on index
// can hold an entry for t.
func (lt *lockTable) mayWait(t *Txn) bool { return t.queued.Load() || lt.bypass }

// clearWait removes t's waits-for edges and queued-on entry for res.
func (lt *lockTable) clearWait(t *Txn, res uint64) {
	lt.wfMu.Lock()
	delete(lt.waitsFor, t)
	if qr := lt.waitingOn[t]; qr != nil {
		delete(qr, res)
		if len(qr) == 0 {
			delete(lt.waitingOn, t)
		}
	}
	if lt.waitingOn[t] == nil {
		t.queued.Store(false)
	}
	lt.wfMu.Unlock()
}

// forgetWaits drops every waits-for edge and queued-on entry of the
// resolved transaction t.
func (lt *lockTable) forgetWaits(t *Txn) {
	if !lt.mayWait(t) {
		return
	}
	lt.wfMu.Lock()
	delete(lt.waitsFor, t)
	delete(lt.waitingOn, t)
	t.queued.Store(false)
	lt.wfMu.Unlock()
}

// cycleFromLocked reports whether the waits-for graph reaches back to
// start from start's blockers. The caller holds wfMu.
func (lt *lockTable) cycleFromLocked(start *Txn) bool {
	seen := make(map[*Txn]bool)
	var dfs func(t *Txn) bool
	dfs = func(t *Txn) bool {
		if t == start {
			return true
		}
		if seen[t] {
			return false
		}
		seen[t] = true
		for next := range lt.waitsFor[t] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	for b := range lt.waitsFor[start] {
		if dfs(b) {
			return true
		}
	}
	return false
}

// releaseAll drops every lock held by t, fails t's queued requests,
// and wakes compatible waiters.
func (lt *lockTable) releaseAll(t *Txn) {
	// Remove t from every wait queue it is parked on: a transaction
	// resolved by another goroutine must not be granted locks later.
	// The queued-on index names the stripes to visit.
	var queued []uint64
	if lt.mayWait(t) {
		lt.wfMu.Lock()
		for res := range lt.waitingOn[t] {
			queued = append(queued, res)
		}
		lt.wfMu.Unlock()
	}
	for _, res := range queued {
		st := lt.stripe(res)
		lt.lockStripe(st)
		ls := st.locks[res]
		if ls == nil {
			st.mu.Unlock()
			continue
		}
		for i := 0; i < len(ls.queue); {
			if ls.queue[i].t == t {
				w := ls.queue[i]
				ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
				w.grant <- ErrWaitCancelled
			} else {
				i++
			}
		}
		lt.wakeLocked(st, ls, res)
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
		delete(ls.holders, t)
		lt.wakeLocked(st, ls, res)
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(st.locks, res)
		}
	})
	lt.forgetWaits(t)
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
		lt.wakeLocked(st, ls, res)
	})
	lt.forgetWaits(child)
}

// wakeLocked grants queued requests that are now compatible, in FIFO
// order, stopping at the first incompatible one. The caller holds st.
func (lt *lockTable) wakeLocked(st *lockStripe, ls *lockState, res uint64) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if w.t.Status() != Active {
			ls.queue = ls.queue[1:]
			lt.clearWait(w.t, res)
			w.grant <- ErrWaitCancelled
			continue
		}
		if !ls.compatible(w.t, w.mode) {
			return
		}
		ls.queue = ls.queue[1:]
		lt.grantLocked(ls, w.t, res, w.mode)
		w.grant <- nil
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
