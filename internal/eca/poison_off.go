//go:build !poison

package eca

// poisonBuild is set by the poison build tag (make poison), under which
// a recycled firing set traps until it is taken again: see
// poison_on.go.
const poisonBuild = false

// scrub zeroes a set returned to its free list.
func scrub(set []ruleFiring) { clear(set) }
