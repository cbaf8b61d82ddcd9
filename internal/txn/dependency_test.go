package txn

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// A commit dependency is a lock: the trigger holds its transaction
// resource until it resolves, and the dependent's commit waits for it
// shared. A trigger that then asks for a lock its dependent holds
// closes a cycle that the deadlock search sees, and the dependent, not
// the trigger, is its victim. Every wait below is bounded by
// wedgeBound, and a wedge fails with the lock table and every
// goroutine's stack instead of hanging.

// commitAsync starts dep's Commit on its own goroutine and returns once
// the commit is parked on on's transaction resource or has returned.
func commitAsync(t *testing.T, dep, on *Txn) <-chan error {
	t.Helper()
	got := make(chan error, 1)
	go func() { got <- dep.Commit() }()
	deadline := time.Now().Add(wedgeBound)
	for len(got) == 0 && !queuedOn(dep, txnSpace|on.ID()) {
		if time.Now().After(deadline) {
			t.Fatalf("txn %d's commit neither parked on txn %d nor returned:\n%s", dep.ID(), on.ID(), stacks())
		}
		runtime.Gosched()
	}
	return got
}

func stacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// The dependent is the victim whichever of the two parks first, and
// whether the trigger itself or its immediate child — an immediate rule
// — closes the cycle: the closing request is granted, and the dependent
// fails with a retriable ErrDeadlock.
func TestDependentIsTheDeadlockVictim(t *testing.T) {
	for _, c := range []struct {
		name                string
		dependentFirst, kid bool
	}{
		{"dependent-parks-first/trigger-closes", true, false},
		{"dependent-parks-first/child-closes", true, true},
		{"trigger-parks-first/trigger-closes", false, false},
		{"trigger-parks-first/child-closes", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager()
			trig, dep := m.Begin(), m.Begin()
			abortAll(t, trig, dep)
			closer := trig
			if c.kid {
				closer, _ = trig.BeginChild()
			}
			dep.RequireCommit(trig)
			mustLock(t, dep, 1, LockExclusive)
			var committed, granted <-chan error
			if c.dependentFirst {
				committed = commitAsync(t, dep, trig)
				granted = request(t, closer, 1, LockExclusive)
			} else {
				granted = request(t, closer, 1, LockExclusive)
				committed = commitAsync(t, dep, trig)
			}
			err := answer(t, m, committed, "the dependent's commit")
			if !errors.Is(err, ErrDeadlock) || !IsRetriable(err) {
				t.Fatalf("dependent's commit = %v, want a retriable ErrDeadlock", err)
			}
			if st := dep.Status(); st != Aborted {
				t.Fatalf("dependent %v after its commit failed, want aborted", st)
			}
			if err := answer(t, m, granted, "the closing request"); err != nil {
				t.Fatalf("closing request = %v, want granted", err)
			}
			if closer != trig {
				if err := closer.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := trig.Commit(); err != nil {
				t.Fatal(err)
			}
			// A retry finds the trigger committed and commits at once.
			retry := m.Begin()
			retry.RequireCommit(trig)
			mustLock(t, retry, 1, LockExclusive)
			if err := retry.Commit(); err != nil {
				t.Fatalf("retry after the trigger committed: %v", err)
			}
		})
	}
}

// A dependent aborted by another goroutine — the rule-deadline
// watchdog — leaves its commit at once, with the trigger still open.
func TestAbortedDependentLeavesCommit(t *testing.T) {
	m := NewManager()
	trig, dep := m.Begin(), m.Begin()
	abortAll(t, trig)
	dep.RequireCommit(trig)
	committed := commitAsync(t, dep, trig)
	if err := dep.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-committed:
		if !errors.Is(err, ErrNotActive) {
			t.Fatalf("aborted dependent's commit = %v, want ErrNotActive", err)
		}
	case <-time.After(time.Second):
		t.Fatalf("aborted dependent still in Commit 1 s later:\n%s\n%s", lockDump(m), stacks())
	}
	if st := trig.Status(); st != Active {
		t.Fatalf("trigger %v, want still active", st)
	}
}

// The dependency wait is a lock wait: it is timed as one, in mode S.
func TestDependencyWaitIsTimedAsSharedLockWait(t *testing.T) {
	m := NewManager()
	trig, dep := m.Begin(), m.Begin()
	dep.RequireAbort(trig)
	committed := commitAsync(t, dep, trig)
	if err := trig.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := answer(t, m, committed, "the contingency's commit"); err != nil {
		t.Fatalf("contingency after its trigger aborted: %v", err)
	}
	if s, x := m.lockWaitS.Count(), m.lockWaitX.Count(); s != 1 || x != 0 {
		t.Fatalf("lock waits observed S=%d X=%d, want 1 and 0", s, x)
	}
}

// A requester can be on two cycles: one through a dependent's commit
// wait and one that does not pass through it. The first makes the
// dependent the victim; cancelling it leaves the second standing, and
// no other request would search for it, so the requester searches again
// and is failed itself. Here the trigger asks for r0, which the
// dependent and another transaction read, and the other transaction
// waits for r1, which the trigger writes.
func TestRequesterOnTwoCyclesSearchesAgain(t *testing.T) {
	m := NewManager()
	trig, dep, other := m.Begin(), m.Begin(), m.Begin()
	abortAll(t, trig, dep, other)
	dep.RequireCommit(trig)
	mustLock(t, trig, 1, LockExclusive)
	mustLock(t, dep, 0, LockShared)
	mustLock(t, other, 0, LockShared)
	otherWaits := request(t, other, 1, LockShared)
	committed := commitAsync(t, dep, trig)
	closing := request(t, trig, 0, LockExclusive)
	if err := answer(t, m, committed, "the dependent's commit"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("dependent's commit = %v, want ErrDeadlock", err)
	}
	if err := answer(t, m, closing, "the trigger's request"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("trigger's request on the second cycle = %v, want ErrDeadlock", err)
	}
	if err := trig.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := answer(t, m, otherWaits, "the other transaction's request"); err != nil {
		t.Fatalf("other transaction's request after the trigger aborted = %v, want granted", err)
	}
}

// A dependency is on a top-level transaction: a subtransaction hands
// its resource up to its parent at commit, so the lock and the status
// the commit reads would be different transactions'.
func TestRequireOnSubtransactionPanics(t *testing.T) {
	m := NewManager()
	top, dep := m.Begin(), m.Begin()
	abortAll(t, top, dep)
	kid, err := top.BeginChild()
	if err != nil {
		t.Fatal(err)
	}
	for _, require := range []func(*Txn){dep.RequireCommit, dep.RequireAbort} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a dependency on a subtransaction was accepted")
				}
			}()
			require(kid)
		}()
	}
}
