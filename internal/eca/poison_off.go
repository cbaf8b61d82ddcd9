//go:build !poison

package eca

import "repro/internal/txn"

// poisonBuild is set by the poison build tag (make poison), under which
// a recycled firing set traps until it is taken again and a recycled
// txnState has a poisoned owner: see poison_on.go.
const poisonBuild = false

// scrub zeroes a set returned to its free list.
func scrub(set []ruleFiring) { clear(set) }

// releasedOwner is the owner of a txnState handed back to its pool.
var releasedOwner *txn.Txn
