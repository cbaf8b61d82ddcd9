//go:build !race

package eca

const raceEnabled = false
