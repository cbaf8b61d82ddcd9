//go:build poison

package eca

// poisonBuild makes a firing set returned to its free list trap instead
// of reading as a zero one, until take zeroes it for its next use.
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
