//go:build !race

package oodb

const raceEnabled = false
