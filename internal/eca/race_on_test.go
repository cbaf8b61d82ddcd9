//go:build race

package eca

// raceEnabled: the race detector makes sync.Pool drop a share of what
// is put back, so a pooled path's allocation count is not its own, and
// slows a hammer test about tenfold.
const raceEnabled = true
