//go:build race

package oodb

// raceEnabled: the race detector makes sync.Pool drop a share of what
// is put back, so a pooled path's allocation count is not its own.
const raceEnabled = true
