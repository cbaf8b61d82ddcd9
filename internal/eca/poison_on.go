//go:build poison

package eca

import "repro/internal/txn"

// poisonBuild makes a firing set returned to its free list trap instead
// of reading as a zero one, until take zeroes it for its next use, and
// gives a recycled txnState a poisoned owner, whose Status panics.
const poisonBuild = true

// scrub overwrites a set returned to its free list with poison values:
// each subtransaction with txn.Poison's impossible status, poison ID
// and nil manager and parent, each rule context and queue entry with
// nil pointers.
func scrub(set []ruleFiring) {
	for i := range set {
		rf := &set[i]
		rf.queued, rf.rc = queued{}, RuleCtx{}
		rf.sub.Poison()
	}
}

// releasedOwner is the owner of a txnState handed back to its pool: a
// poisoned transaction, whose Status panics.
var releasedOwner = func() *txn.Txn {
	t := new(txn.Txn)
	t.Poison()
	return t
}()
