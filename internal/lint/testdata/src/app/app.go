// Package app seeds exactly the violations the analyzer tests expect;
// line positions here are pinned by findings.golden.
package app

import (
	"sync"
	"sync/atomic"
	"time"

	"fixture/internal/eca"
	"fixture/internal/storage"
)

var counter atomic.Uint64

// badClock reads the wall clock directly (clockusage).
func badClock() time.Time {
	return time.Now()
}

// okClock is suppressed with a justification and must not be reported.
func okClock() {
	time.Sleep(time.Millisecond) //lint:allow clockusage fixture pacing, reviewed
}

// badRules pairs couplings Table 1 rejects (couplingtable).
func badRules() []eca.Rule {
	return []eca.Rule{
		{Name: "t", EventKey: "time:tick", CondMode: eca.Immediate, ActionMode: eca.Deferred},
		{Name: "c", EventKey: "composite:burst", CondMode: eca.Detached, ActionMode: eca.Immediate},
		{Name: "ok", EventKey: "method:Account.deposit", CondMode: eca.Immediate, ActionMode: eca.Immediate},
	}
}

// badSink drops durability errors on the floor (errsink).
func badSink(s *storage.Store) {
	s.Flush()
	storage.Sync()
	_ = s.Flush() // an explicit discard is a reviewed decision, not a finding
}

// badLock holds a mutex across a channel send and a cross-package
// call (lockdiscipline).
func badLock(mu *sync.Mutex, ch chan int) error {
	mu.Lock()
	ch <- 1
	err := storage.Sync()
	mu.Unlock()
	return err
}

// okLock releases before blocking and must not be reported.
func okLock(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	counter.Add(1)
	mu.Unlock()
	ch <- 1
}

// The suppression below names no analyzer (suppression finding), and
// the one after it suppresses nothing (stale).
func badSuppressions() {
	//lint:allow
	_ = counter.Load() //lint:allow errsink nothing is discarded here
}

// nower is any time source with a Now, like clock.Clock.
type nower interface{ Now() time.Time }

// badSince takes a duration from a fresh wall read (clockusage).
func badSince(c nower, start time.Time) time.Duration {
	return c.Now().Sub(start)
}
