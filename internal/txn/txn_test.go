package txn

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBeginCommitTopLevel(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if !tx.IsTop() || tx.Depth() != 0 || tx.Parent() != nil {
		t.Fatal("top-level shape wrong")
	}
	if tx.Status() != Active {
		t.Fatalf("Status = %v, want Active", tx.Status())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.Status() != Committed {
		t.Fatalf("Status = %v, want Committed", tx.Status())
	}
	select {
	case <-tx.Done():
	default:
		t.Fatal("Done not closed after commit")
	}
}

func TestCommitTwiceFails(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Commit()
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("second Commit err = %v, want ErrNotActive", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Abort after Commit err = %v, want ErrNotActive", err)
	}
}

func TestIDsMonotone(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	c, _ := a.BeginChild()
	if !(a.ID() < b.ID() && b.ID() < c.ID()) {
		t.Fatalf("IDs not monotone: %d %d %d", a.ID(), b.ID(), c.ID())
	}
}

func TestNestedCommitAndTop(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	child, err := top.BeginChild()
	if err != nil {
		t.Fatal(err)
	}
	grand, err := child.BeginChild()
	if err != nil {
		t.Fatal(err)
	}
	if grand.Top() != top || grand.Depth() != 2 {
		t.Fatal("Top/Depth wrong")
	}
	if err := top.Commit(); !errors.Is(err, ErrChildrenActive) {
		t.Fatalf("Commit with active children err = %v, want ErrChildrenActive", err)
	}
	if err := grand.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestBeginChildOfResolvedFails(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Commit()
	if _, err := tx.BeginChild(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("BeginChild err = %v, want ErrNotActive", err)
	}
}

func TestAbortCascadesToChildren(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	c1, _ := top.BeginChild()
	c2, _ := top.BeginChild()
	g, _ := c1.BeginChild()
	if err := top.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*Txn{top, c1, c2, g} {
		if tx.Status() != Aborted {
			t.Fatalf("txn %d status = %v, want Aborted", tx.ID(), tx.Status())
		}
	}
	if g.Err() == nil {
		t.Fatal("cascaded child has nil Err")
	}
}

func TestChildAbortDoesNotAbortParent(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	child, _ := top.BeginChild()
	child.Abort()
	if top.Status() != Active {
		t.Fatalf("parent status = %v, want Active", top.Status())
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOnAbortLIFO(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	var order []int
	tx.OnAbort(func() { order = append(order, 1) })
	tx.OnAbort(func() { order = append(order, 2) })
	tx.AbortWith(errors.New("boom"))
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("undo order = %v, want [2 1]", order)
	}
	if tx.Err() == nil || tx.Err().Error() != "boom" {
		t.Fatalf("Err = %v, want boom", tx.Err())
	}
}

func TestOnAbortNotRunOnCommit(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	ran := false
	tx.OnAbort(func() { ran = true })
	tx.Commit()
	if ran {
		t.Fatal("undo ran on commit")
	}
}

type recordingListener struct {
	mu     sync.Mutex
	events []string
	eotErr error
}

func (l *recordingListener) record(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, s)
}
func (l *recordingListener) AfterBegin(t *Txn)         { l.record("begin") }
func (l *recordingListener) BeforeCommit(t *Txn) error { l.record("eot"); return l.eotErr }
func (l *recordingListener) AfterCommit(t *Txn)        { l.record("commit") }
func (l *recordingListener) AfterAbort(t *Txn)         { l.record("abort") }

func TestListenerSequence(t *testing.T) {
	m := NewManager()
	l := &recordingListener{}
	m.SetListener(l)
	tx := m.Begin()
	tx.Commit()
	want := []string{"begin", "eot", "commit"}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) != 3 {
		t.Fatalf("events = %v, want %v", l.events, want)
	}
	for i := range want {
		if l.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", l.events, want)
		}
	}
}

func TestEOTErrorAborts(t *testing.T) {
	m := NewManager()
	l := &recordingListener{eotErr: errors.New("deferred rule failed")}
	m.SetListener(l)
	tx := m.Begin()
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit succeeded despite EOT error")
	}
	if tx.Status() != Aborted {
		t.Fatalf("Status = %v, want Aborted", tx.Status())
	}
}

func TestEOTNotCalledForSubtransactions(t *testing.T) {
	m := NewManager()
	l := &recordingListener{}
	m.SetListener(l)
	top := m.Begin()
	child, _ := top.BeginChild()
	child.Commit()
	l.mu.Lock()
	for _, e := range l.events {
		if e == "eot" {
			t.Fatal("EOT fired for subtransaction commit")
		}
	}
	l.mu.Unlock()
	top.Commit()
}

func TestDurabilityCallbacks(t *testing.T) {
	m := NewManager()
	var commits, aborts atomic.Int32
	m.SetDurability(
		func(*Txn) error { commits.Add(1); return nil },
		func(*Txn) error { aborts.Add(1); return nil },
	)
	tx := m.Begin()
	child, _ := tx.BeginChild()
	child.Commit() // must NOT hit durability
	tx.Commit()
	if commits.Load() != 1 {
		t.Fatalf("commitFunc called %d times, want 1", commits.Load())
	}
	tx2 := m.Begin()
	tx2.Abort()
	if aborts.Load() != 1 {
		t.Fatalf("abortFunc called %d times, want 1", aborts.Load())
	}
}

func TestDurableCommitFailureAborts(t *testing.T) {
	m := NewManager()
	m.SetDurability(func(*Txn) error { return errors.New("disk full") }, nil)
	tx := m.Begin()
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit succeeded despite durability failure")
	}
	if tx.Status() != Aborted {
		t.Fatalf("Status = %v, want Aborted", tx.Status())
	}
}

func TestRequireCommitSatisfied(t *testing.T) {
	m := NewManager()
	trigger := m.Begin()
	rule := m.Begin()
	rule.RequireCommit(trigger)
	done := make(chan error, 1)
	go func() { done <- rule.Commit() }()
	select {
	case <-done:
		t.Fatal("dependent committed before trigger resolved")
	case <-time.After(20 * time.Millisecond):
	}
	trigger.Commit()
	if err := <-done; err != nil {
		t.Fatalf("dependent commit: %v", err)
	}
}

func TestRequireCommitViolated(t *testing.T) {
	m := NewManager()
	trigger := m.Begin()
	rule := m.Begin()
	rule.RequireCommit(trigger)
	trigger.Abort()
	err := rule.Commit()
	if !errors.Is(err, ErrDependencyFailed) {
		t.Fatalf("err = %v, want ErrDependencyFailed", err)
	}
	if rule.Status() != Aborted {
		t.Fatalf("dependent status = %v, want Aborted", rule.Status())
	}
}

func TestRequireAbortExclusiveMode(t *testing.T) {
	m := NewManager()
	// Contingency commits only if the trigger aborts.
	trigger := m.Begin()
	contingency := m.Begin()
	contingency.RequireAbort(trigger)
	trigger.Abort()
	if err := contingency.Commit(); err != nil {
		t.Fatalf("contingency commit after trigger abort: %v", err)
	}

	trigger2 := m.Begin()
	contingency2 := m.Begin()
	contingency2.RequireAbort(trigger2)
	trigger2.Commit()
	if err := contingency2.Commit(); !errors.Is(err, ErrDependencyFailed) {
		t.Fatalf("err = %v, want ErrDependencyFailed", err)
	}
}

func TestWaitReturnsOutcome(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	go func() {
		time.Sleep(5 * time.Millisecond)
		tx.Commit()
	}()
	if got := tx.Wait(); got != Committed {
		t.Fatalf("Wait = %v, want Committed", got)
	}
}

func TestTxnValues(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	type key struct{}
	if tx.Value(key{}) != nil {
		t.Fatal("unset value not nil")
	}
	tx.SetValue(key{}, 42)
	if got := tx.Value(key{}); got != 42 {
		t.Fatalf("Value = %v, want 42", got)
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{Active, Committed, Aborted} {
		if s.String() == "" {
			t.Errorf("Status %d empty String", s)
		}
	}
	if LockShared.String() != "S" || LockExclusive.String() != "X" {
		t.Error("LockMode strings wrong")
	}
}

func TestParentAbortUndoesCommittedChildEffects(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	child, _ := top.BeginChild()
	var undone []string
	child.OnAbort(func() { undone = append(undone, "child") })
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	top.OnAbort(func() { undone = append(undone, "top") })
	top.Abort()
	// LIFO across the inherited boundary: top's own (later) undo runs
	// first, then the child's inherited compensation.
	if len(undone) != 2 || undone[0] != "top" || undone[1] != "child" {
		t.Fatalf("undo order = %v, want [top child]", undone)
	}
}

func TestCommittedTopDropsUndo(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	child, _ := top.BeginChild()
	ran := false
	child.OnAbort(func() { ran = true })
	child.Commit()
	top.Commit()
	if ran {
		t.Fatal("inherited undo ran despite top-level commit")
	}
}

// activeChildren counts the children t still tracks.
func activeChildren(t *Txn) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for c := t.kids; c != nil; c = c.sibNext {
		n++
	}
	return n
}

// A long transaction firing many rules tracks only the subtransactions
// still running: resolved children leave the list, whether they
// committed or aborted.
func TestResolvedChildrenAreNotRetained(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	for i := 0; i < 10000; i++ {
		c, err := top.BeginChild()
		if err != nil {
			t.Fatal(err)
		}
		g, _ := c.BeginChild()
		if i%3 == 0 {
			_ = g.Abort()
			_ = c.Abort()
		} else if g.Commit() != nil || c.Commit() != nil {
			t.Fatal("child commit failed")
		}
		if n := activeChildren(top) + activeChildren(c); n != 0 {
			t.Fatalf("after %d firings the tree still tracks %d resolved children", i+1, n)
		}
	}
	// Abort still reaches every active child, in any list position.
	var live []*Txn
	for i := 0; i < 5; i++ {
		c, _ := top.BeginChild()
		live = append(live, c)
	}
	_ = live[2].Commit()
	_ = live[4].Abort()
	if n := activeChildren(top); n != 3 {
		t.Fatalf("tracking %d children, want the 3 still active", n)
	}
	if err := top.Abort(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Status{Aborted, Aborted, Committed, Aborted, Aborted} {
		if got := live[i].Status(); got != want {
			t.Fatalf("child %d is %v after the parent's abort, want %v", i, got, want)
		}
	}
	if n := activeChildren(top); n != 0 {
		t.Fatalf("aborted parent still tracks %d children", n)
	}
}

func TestDoneAfterResolutionIsClosed(t *testing.T) {
	m := NewManager()
	for _, resolve := range []func(*Txn) error{(*Txn).Commit, (*Txn).Abort} {
		tx := m.Begin()
		if err := resolve(tx); err != nil {
			t.Fatal(err)
		}
		select {
		case <-tx.Done(): // first asked for after the fact
		default:
			t.Fatal("Done() of a resolved transaction is not closed")
		}
	}
}

func TestAttachmentsAndTag(t *testing.T) {
	m := NewManager()
	tx := m.BeginTagged(7)
	if tx.Tag() != 7 || m.Begin().Tag() != 0 {
		t.Fatal("BeginTagged did not set the tag, or Begin set one")
	}
	if tx.Attachment(SlotRules) != nil {
		t.Fatal("fresh transaction has an attachment")
	}
	first, second := new(int), new(int)
	if got := tx.Attach(SlotRules, first); got != first {
		t.Fatal("Attach to an empty slot did not return the attached value")
	}
	if got := tx.Attach(SlotRules, second); got != first {
		t.Fatal("second Attach replaced the slot's value")
	}
	if tx.Attachment(SlotRules) != first || tx.Attachment(SlotObjects) != nil {
		t.Fatal("slots are not independent")
	}
}

// The subtransaction a rule runs in costs one allocation — the Txn —
// including a lock its parent already holds and its inheritance.
func TestChildAllocationCeiling(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	if err := top.Lock(7, LockExclusive); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c, _ := top.BeginChild()
		_ = c.Lock(7, LockExclusive)
		_ = c.Lock(8, LockShared) // new to the tree: the parent inherits it
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("child begin + lock + commit + inherit = %.0f allocations, ceiling 1", allocs)
	}
}

// A child's commit racing its parent's abort — the rule executor's
// deadline watchdog aborts a rule transaction from a timer goroutine
// while an immediate rule's subtransaction commits — must leave nothing
// behind, whichever goes first: both compensations run exactly once and
// the child's locks go back to the table, not to an aborted parent.
func TestChildCommitRacingParentAbort(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	const locks = 4 // the child's, inherited one by one
	m := NewManager()
	var leaked, lost, twice int
	for i := 0; i < trials; i++ {
		top := m.Begin()
		c, err := top.BeginChild()
		if err != nil {
			t.Fatal(err)
		}
		var topUndone, childUndone atomic.Int32
		top.OnAbort(func() { topUndone.Add(1) })
		for r := uint64(0); r < locks; r++ {
			if err := c.Lock(uint64(i)*locks+r, LockExclusive); err != nil {
				t.Fatal(err)
			}
		}
		c.OnAbort(func() { childUndone.Add(1) })
		var wg sync.WaitGroup
		wg.Add(2)
		start := make(chan struct{})
		go func() { defer wg.Done(); <-start; _ = c.Commit() }()
		go func() { defer wg.Done(); <-start; _ = top.Abort() }()
		close(start)
		wg.Wait()
		if top.Status() != Aborted || topUndone.Load() != 1 {
			t.Fatalf("trial %d: parent %v with its undo run %d times", i, top.Status(), topUndone.Load())
		}
		switch childUndone.Load() {
		case 0:
			lost++
		case 1:
		default:
			twice++
		}
		for r := uint64(0); r < locks; r++ {
			res := uint64(i)*locks + r
			st := m.locks.stripe(res)
			st.mu.Lock()
			if st.locks[res] != nil {
				leaked++
			}
			st.mu.Unlock()
		}
	}
	if leaked+lost+twice > 0 {
		t.Fatalf("%d trials: %d locks left held after both resolved, %d child undos lost, %d run twice",
			trials, leaked, lost, twice)
	}
}

// A child aborted by another goroutine — a resolver cancelling it —
// while its own goroutine aborts it too: once either Abort returns, the
// child is off the parent's active list, so the parent commits.
func TestParentCommitsAfterRacingChildAborts(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	m := NewManager()
	for i := 0; i < trials; i++ {
		top := m.Begin()
		c, err := top.BeginChild()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Lock(uint64(i), LockExclusive); err != nil {
			t.Fatal(err)
		}
		c.OnAbort(runtime.Gosched) // widen the window a waiting Abort wakes in
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); <-start; _ = c.Abort() }()
		close(start)
		runtime.Gosched()
		_ = c.Abort()
		if err := top.Commit(); err != nil {
			t.Fatalf("trial %d: parent commit after its child aborted: %v", i, err)
		}
		wg.Wait()
	}
}
