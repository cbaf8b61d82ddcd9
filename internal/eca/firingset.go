package eca

import (
	"math/bits"
	"sync"

	"repro/internal/txn"
)

// ruleFiring is one firing of a rule set: the immediate rules one
// occurrence fires, or the deferred ones an EOT round runs. The set is
// one backing array, which also holds each firing's rule context and
// subtransaction, so a firing is never copied.
type ruleFiring struct {
	queued
	rc  RuleCtx
	sub txn.Txn // the subtransaction of the trigger the firing runs in
}

// A finished set's array goes back to a free list of its size class and
// the next set of that class begins its subtransactions in it, unless
// something can still reach one of them (release): a set is 496 bytes a
// firing, the bulk of what a transaction firing rules allocates, and
// those bytes set how often the collector runs.
//
// Each ECA-manager keeps its own lists (Manager.sets), so transactions
// raising different events share no list: on two CPUs, two clients
// sharing engine-wide lists paid for the lists' mutexes and cache lines
// in every set, 8 % of plant-rules' txn_p50_us.
const (
	// firingClasses is the number of size classes: class c holds
	// arrays of 1<<c firings, so sets of up to 64 are recycled and
	// larger ones left to the collector.
	firingClasses = 7
	// freePerClass bounds each class's free list. A list holds no more
	// arrays than there were sets of its class in flight at once: one
	// per goroutine raising, per cascade level.
	freePerClass = 8
)

// firingSets are a manager's free lists, one per size class.
type firingSets [firingClasses]struct {
	mu   sync.Mutex
	free [][]ruleFiring // zeroed arrays of the class's capacity
}

// take returns a zeroed set of n > 0 firings, on an array from the
// free list of its size class when there is one.
func (fs *firingSets) take(n int) []ruleFiring {
	c := bits.Len(uint(n - 1))
	if c >= firingClasses {
		return make([]ruleFiring, n)
	}
	l := &fs[c]
	l.mu.Lock()
	if k := len(l.free) - 1; k >= 0 {
		set := l.free[k][:n]
		l.free[k] = nil
		l.free = l.free[:k]
		l.mu.Unlock()
		if poisonBuild {
			clear(set)
		}
		return set
	}
	l.mu.Unlock()
	return make([]ruleFiring, n, 1<<c)
}

// release puts a finished set's array back on its free list, zeroed,
// when nothing can reach its subtransactions any more; otherwise the
// collector takes it, as it takes every set larger than the classes.
// Three things can reach a resolved subtransaction:
//   - an occurrence raised in it (or in a descendant) that a deferred
//     queue, the detached executor or a composer retained: Retain pins
//     its Origin and the Origin's ancestors;
//   - an abort of the trigger that began before the subtransactions
//     left its list of children, and cascades to them;
//   - a deadlock search that listed them among the trigger's children.
//
// The last two are ruled out by trigger.ChildrenReclaimable, read once
// every firing has resolved. A firing still active (its transaction
// failed to begin, or to resolve) keeps the set too.
func (fs *firingSets) release(trigger *txn.Txn, set []ruleFiring) {
	c := bits.Len(uint(cap(set) - 1))
	if c >= firingClasses {
		return
	}
	for i := range set {
		if sub := &set[i].sub; sub.Pinned() || sub.Status() == txn.Active {
			return
		}
	}
	if trigger != nil && !trigger.ChildrenReclaimable() {
		return
	}
	scrub(set)
	l := &fs[c]
	l.mu.Lock()
	if len(l.free) < freePerClass {
		l.free = append(l.free, set[:0])
	}
	l.mu.Unlock()
}
