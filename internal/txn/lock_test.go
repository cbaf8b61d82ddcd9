package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockSharedCompatible(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(1, LockShared); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(1, LockShared); err != nil {
		t.Fatal(err)
	}
	a.Commit()
	b.Commit()
}

func TestLockExclusiveBlocks(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(1, LockExclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- b.Lock(1, LockExclusive) }()
	select {
	case <-acquired:
		t.Fatal("X lock granted while conflicting X held")
	case <-time.After(20 * time.Millisecond):
	}
	a.Commit() // releases
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	b.Commit()
}

func TestLockReentrant(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	if err := a.Lock(1, LockExclusive); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(1, LockExclusive); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(1, LockShared); err != nil {
		t.Fatal(err) // weaker re-request is a no-op
	}
	a.Commit()
}

func TestLockUpgrade(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	a.Lock(1, LockShared)
	b.Lock(1, LockShared)
	upgraded := make(chan error, 1)
	go func() { upgraded <- a.Lock(1, LockExclusive) }()
	select {
	case <-upgraded:
		t.Fatal("upgrade granted while another S holder present")
	case <-time.After(20 * time.Millisecond):
	}
	b.Commit()
	if err := <-upgraded; err != nil {
		t.Fatal(err)
	}
	if a.Held()[1] != LockExclusive {
		t.Fatalf("held mode = %v, want X", a.Held()[1])
	}
	a.Commit()
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	a.Lock(1, LockExclusive)
	b.Lock(2, LockExclusive)

	ch := make(chan error, 2)
	go func() { ch <- a.Lock(2, LockExclusive) }()
	time.Sleep(10 * time.Millisecond) // let a block first
	err := b.Lock(1, LockExclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second edge err = %v, want ErrDeadlock", err)
	}
	b.Abort() // victim aborts, releasing lock 2
	if err := <-ch; err != nil {
		t.Fatalf("survivor lock err = %v", err)
	}
	a.Commit()
}

// TestUpgradeDeadlockDetected drives the classic S→X upgrade deadlock:
// two transactions both hold shared locks on the same resource and
// both request exclusive. Neither can proceed until the other releases,
// so the second requester must receive ErrDeadlock — not hang.
func TestUpgradeDeadlockDetected(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	if err := a.Lock(1, LockShared); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(1, LockShared); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- a.Lock(1, LockExclusive) }()
	time.Sleep(10 * time.Millisecond) // let a's upgrade park
	err := b.Lock(1, LockExclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrade err = %v, want ErrDeadlock", err)
	}
	b.Abort() // victim's S lock goes; survivor's upgrade becomes grantable
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("survivor upgrade err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor's upgrade never granted after victim aborted")
	}
	if a.Held()[1] != LockExclusive {
		t.Fatalf("held mode = %v, want X", a.Held()[1])
	}
	a.Commit()
}

// TestCrossStripeDeadlockHammer races opposing lock orders on resource
// pairs that hash to different stripes, so every cycle spans stripes
// and detection must come from the global waits-for graph — no single
// stripe ever sees both edges. The assertion is progress: each cycle
// loses one edge to ErrDeadlock, so every worker terminates.
func TestCrossStripeDeadlockHammer(t *testing.T) {
	m := NewManager()
	const workers = 12
	const rounds = 40
	var detected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r1 := uint64(i % 4)
				r2 := r1 + 100
				for m.locks.stripe(r1) == m.locks.stripe(r2) {
					r2++
				}
				first, second := r1, r2
				if w%2 == 1 {
					first, second = r2, r1 // opposing order manufactures cycles
				}
				tx := m.Begin()
				if err := tx.Lock(first, LockExclusive); err != nil {
					detected.Add(1)
					tx.Abort()
					continue
				}
				// Hold the first lock long enough for an opposing worker
				// to take the other resource — without the window the
				// rounds serialize and no cycle ever forms.
				time.Sleep(50 * time.Microsecond)
				if err := tx.Lock(second, LockExclusive); err != nil {
					detected.Add(1)
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cross-stripe deadlock went undetected (workers hung)")
	}
	t.Logf("cross-stripe deadlocks detected: %d", detected.Load())
}

func TestChildMayAcquireAncestorLock(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	if err := top.Lock(1, LockExclusive); err != nil {
		t.Fatal(err)
	}
	child, _ := top.BeginChild()
	if err := child.Lock(1, LockExclusive); err != nil {
		t.Fatalf("child blocked on ancestor-held lock: %v", err)
	}
	child.Commit()
	top.Commit()
}

func TestSiblingSubtransactionsConflict(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	c1, _ := top.BeginChild()
	c2, _ := top.BeginChild()
	if err := c1.Lock(1, LockExclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- c2.Lock(1, LockExclusive) }()
	select {
	case <-got:
		t.Fatal("sibling acquired conflicting lock")
	case <-time.After(20 * time.Millisecond):
	}
	// When c1 commits, its locks are inherited by top — an ancestor of
	// c2 — so c2's request becomes grantable.
	c1.Commit()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	c2.Commit()
	top.Commit()
}

func TestLockInheritanceOnChildCommit(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	child, _ := top.BeginChild()
	child.Lock(7, LockExclusive)
	child.Commit()
	if top.Held()[7] != LockExclusive {
		t.Fatalf("parent did not inherit child's X lock: %v", top.Held())
	}
	// An outsider must still conflict.
	out := m.Begin()
	got := make(chan error, 1)
	go func() { got <- out.Lock(7, LockShared) }()
	select {
	case <-got:
		t.Fatal("outsider acquired inherited lock while top active")
	case <-time.After(20 * time.Millisecond):
	}
	top.Commit()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	out.Commit()
}

func TestChildAbortReleasesItsLocks(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	child, _ := top.BeginChild()
	child.Lock(9, LockExclusive)
	child.Abort()
	out := m.Begin()
	if err := out.Lock(9, LockExclusive); err != nil {
		t.Fatalf("lock held by aborted child not released: %v", err)
	}
	out.Commit()
	top.Commit()
}

func TestAbortWhileWaitingFailsRequest(t *testing.T) {
	m := NewManager()
	holder := m.Begin()
	holder.Lock(1, LockExclusive)
	waiter := m.Begin()
	got := make(chan error, 1)
	go func() { got <- waiter.Lock(1, LockShared) }()
	time.Sleep(10 * time.Millisecond)
	waiter.Abort() // resolved by another goroutine while queued
	select {
	case err := <-got:
		if !errors.Is(err, ErrNotActive) {
			t.Fatalf("err = %v, want ErrNotActive", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued request of aborted txn never failed")
	}
	holder.Commit()
}

func TestLockAfterResolveFails(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Commit()
	if err := tx.Lock(1, LockShared); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
}

func TestLockFIFOFairness(t *testing.T) {
	m := NewManager()
	holder := m.Begin()
	holder.Lock(1, LockExclusive)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	txs := make([]*Txn, 3)
	for i := 0; i < 3; i++ {
		txs[i] = m.Begin()
	}
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := txs[i].Lock(1, LockExclusive); err != nil {
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			txs[i].Commit()
		}()
		time.Sleep(10 * time.Millisecond) // deterministic queue order
	}
	holder.Commit()
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want [0 1 2]", order)
	}
}

// TestLockStress exercises many goroutines transferring "funds" between
// locked accounts; the invariant is conservation of the total.
func TestLockStress(t *testing.T) {
	m := NewManager()
	const accounts = 8
	const workers = 16
	const transfers = 50
	balances := make([]int64, accounts)
	for i := range balances {
		balances[i] = 1000
	}
	var deadlocks atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < transfers; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				tx := m.Begin()
				if err := tx.Lock(uint64(from), LockExclusive); err != nil {
					deadlocks.Add(1)
					tx.Abort()
					continue
				}
				if err := tx.Lock(uint64(to), LockExclusive); err != nil {
					deadlocks.Add(1)
					tx.Abort()
					continue
				}
				balances[from] -= 10
				balances[to] += 10
				tx.Commit()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lock stress timed out (undetected deadlock)")
	}
	var total int64
	for _, b := range balances {
		total += b
	}
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d (lost updates)", total, accounts*1000)
	}
	t.Logf("deadlocks detected and recovered: %d", deadlocks.Load())
}

// Each test below closes a cycle that only the lock state and the
// transaction tree as they stand at the closing request show: edges
// taken when an earlier request parked miss it. The closing request
// must come back within wedgeBound, as ErrDeadlock, and never hang the
// test.

const wedgeBound = 2 * time.Second

// request starts tx's lock request on its own goroutine and returns once
// the request is parked or answered.
func request(t *testing.T, tx *Txn, res uint64, mode LockMode) <-chan error {
	t.Helper()
	got := make(chan error, 1)
	go func() { got <- tx.Lock(res, mode) }()
	deadline := time.Now().Add(wedgeBound)
	for len(got) == 0 && !queuedOn(tx, res) {
		if time.Now().After(deadline) {
			t.Fatalf("txn %d's %v request on %d neither parked nor answered", tx.ID(), mode, res)
		}
		runtime.Gosched()
	}
	return got
}

// answer waits up to wedgeBound for a request's outcome; on timeout it
// fails with the lock table's holders and queues and every goroutine's
// stack.
func answer(t *testing.T, m *Manager, got <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-got:
		return err
	case <-time.After(wedgeBound):
		t.Fatalf("%s: neither granted nor ErrDeadlock within %v — wedged:\n%s\n%s", what, wedgeBound, lockDump(m), stacks())
		return nil
	}
}

// lockDump renders every non-empty lock state as holders|queue.
func lockDump(m *Manager) string {
	var b strings.Builder
	for i := range m.locks.stripes {
		st := &m.locks.stripes[i]
		st.mu.Lock()
		for res, ls := range st.locks {
			fmt.Fprintf(&b, "  res %d: holders", res)
			for _, h := range ls.holders {
				fmt.Fprintf(&b, " %d%v", h.t.ID(), h.mode)
			}
			b.WriteString(" | queue")
			for _, w := range ls.queue {
				fmt.Fprintf(&b, " %d%v", w.t.ID(), w.mode)
			}
			b.WriteString("\n")
		}
		st.mu.Unlock()
	}
	return b.String()
}

// abortAll resolves the given transactions at the end of a test so no
// parked request outlives it.
func abortAll(t *testing.T, txs ...*Txn) {
	t.Cleanup(func() {
		for _, tx := range txs {
			_ = tx.Abort()
		}
	})
}

func mustLock(t *testing.T, tx *Txn, res uint64, mode LockMode) {
	t.Helper()
	if err := tx.Lock(res, mode); err != nil {
		t.Fatalf("txn %d %v(%d): %v", tx.ID(), mode, res, err)
	}
}

// An immediate rule writing an object another client holds: A waits on
// B's lock while B's rule child waits on A's. B waits in code for its
// child, so the child's request closes the cycle.
func TestDeadlockNestedRuleChild(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	c, _ := b.BeginChild()
	abortAll(t, a, b)
	mustLock(t, a, 1, LockExclusive)
	mustLock(t, b, 2, LockExclusive)
	aWaits := request(t, a, 2, LockExclusive)
	if err := answer(t, m, request(t, c, 1, LockExclusive), "rule child c X(1)"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("rule child's request = %v, want ErrDeadlock", err)
	}
	_ = c.Abort()
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := answer(t, m, aWaits, "A X(2) after B committed"); err != nil {
		t.Fatalf("A's request = %v after B committed", err)
	}
}

// B parks on a lock A's child holds; the child commits and A inherits
// it, so B now waits on A — an edge no parked request recorded. A's
// request for B's lock closes the cycle.
func TestDeadlockAfterCommitInherit(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	c, _ := a.BeginChild()
	abortAll(t, a, b)
	mustLock(t, c, 1, LockExclusive)
	mustLock(t, b, 2, LockExclusive)
	bWaits := request(t, b, 1, LockExclusive)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := answer(t, m, request(t, a, 2, LockExclusive), "A X(2) after inheriting X(1)"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("A's request = %v, want ErrDeadlock", err)
	}
	_ = a.Abort()
	if err := answer(t, m, bWaits, "B X(1) after A aborted"); err != nil {
		t.Fatalf("B's request = %v after A aborted", err)
	}
}

// Parallel siblings under a reading parent: s1's upgrade parks behind
// s2's read; s3 reads past the queue by the ancestor rule; s2 commits,
// so s1 now waits on s3, and s3's upgrade, queued behind s1, closes
// the cycle.
func TestDeadlockLateBypassReader(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	s1, _ := top.BeginChild()
	s2, _ := top.BeginChild()
	s3, _ := top.BeginChild()
	abortAll(t, top)
	mustLock(t, top, 1, LockShared)
	mustLock(t, s1, 1, LockShared)
	mustLock(t, s2, 1, LockShared)
	s1Waits := request(t, s1, 1, LockExclusive)
	mustLock(t, s3, 1, LockShared) // the ancestor rule: top holds S
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := answer(t, m, request(t, s3, 1, LockExclusive), "s3 X(1) behind s1's upgrade"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("s3's upgrade = %v, want ErrDeadlock", err)
	}
	_ = s3.Abort()
	if err := answer(t, m, s1Waits, "s1 X(1) after s3 aborted"); err != nil {
		t.Fatalf("s1's upgrade = %v after s3 aborted", err)
	}
}

// stripeMates returns n resources that hash to one stripe.
func stripeMates(lt *lockTable, n int) []uint64 {
	out := []uint64{1}
	for r := uint64(2); len(out) < n; r++ {
		if lt.stripe(r) == lt.stripe(out[0]) {
			out = append(out, r)
		}
	}
	return out
}

// checkSpares fails unless every stripe's spare head is zeroed and not
// in use, and no stripe keeps an empty head in use.
func checkSpares(t *testing.T, lt *lockTable) {
	t.Helper()
	for i := range lt.stripes {
		st := &lt.stripes[i]
		st.mu.Lock()
		if ls := st.spare; ls != nil {
			zeroed := ls.holders == nil && ls.inline == [inlineHolders]lockHolder{} && len(ls.queue) == 0
			for _, w := range ls.queue[:cap(ls.queue)] {
				zeroed = zeroed && w == nil
			}
			if !zeroed {
				st.mu.Unlock()
				t.Fatalf("stripe %d: the spare head is not zeroed: %+v", i, *ls)
			}
		}
		for res, ls := range st.locks {
			if ls == st.spare || len(ls.holders) == 0 && len(ls.queue) == 0 {
				st.mu.Unlock()
				t.Fatalf("stripe %d: resource %d keeps the spare or an empty head", i, res)
			}
		}
		st.mu.Unlock()
	}
}

// TestLockHeadRecyclingHammer churns lock heads through one stripe's
// spare from many goroutines: resources that share a stripe are granted
// and released, inherited by committing children, parked on and woken,
// lost by deadlock victims and cancelled by a resolver aborting
// transactions from its own goroutine. Meanwhile and at the end, every
// spare must be zeroed and not in use; at the end no lock may be held.
func TestLockHeadRecyclingHammer(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	m := NewManager()
	lt := m.locks
	res := stripeMates(lt, 16)
	const workers = 4
	var current [workers]atomic.Pointer[Txn] // what the resolver may abort
	var wg sync.WaitGroup
	var victims, cancelled atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			lock := func(tx *Txn) error {
				var err error
				for _, i := range rng.Perm(len(res))[:1+rng.Intn(5)] {
					mode := LockShared
					if rng.Intn(2) == 0 {
						mode = LockExclusive
					}
					if err = tx.Lock(res[i], mode); err != nil {
						break
					}
				}
				return err
			}
			for i := 0; i < rounds; i++ {
				top := m.Begin()
				current[g].Store(top)
				err := lock(top)
				if err == nil && rng.Intn(2) == 0 {
					var c *Txn
					if c, err = top.BeginChild(); err == nil {
						current[g].Store(c)
						if err = lock(c); err == nil && rng.Intn(3) > 0 {
							err = c.Commit() // the parent inherits
						} else {
							_ = c.Abort()
						}
					}
				}
				if err == nil {
					err = top.Commit()
				}
				current[g].Store(nil)
				switch {
				case err == nil:
				case errors.Is(err, ErrDeadlock):
					victims.Add(1)
				case errors.Is(err, ErrNotActive): // the resolver got there first
					cancelled.Add(1)
				default:
					t.Errorf("worker %d round %d: %v", g, i, err)
				}
				_ = top.Abort()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	rng := rand.New(rand.NewSource(99))
	deadline := time.After(30 * time.Second)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-deadline:
			buf := make([]byte, 1<<20)
			t.Fatalf("hammer wedged:\n%s\n%s", lockDump(m), buf[:runtime.Stack(buf, true)])
		default:
			if tx := current[rng.Intn(workers)].Load(); tx != nil && rng.Intn(8) == 0 {
				_ = tx.Abort()
			}
			if rng.Intn(64) == 0 {
				checkSpares(t, lt)
			}
			runtime.Gosched()
		}
	}
	checkSpares(t, lt)
	for i := range lt.stripes {
		if n := len(lt.stripes[i].locks); n != 0 {
			t.Fatalf("stripe %d retains %d lock heads:\n%s", i, n, lockDump(m))
		}
	}
	if lt.stripe(res[0]).spare == nil {
		t.Fatal("the shared stripe kept no spare head")
	}
	t.Logf("%d parks, %d deadlock victims, %d transactions cancelled by the resolver",
		m.lockWaitS.Count()+m.lockWaitX.Count(), victims.Load(), cancelled.Load())
}

// A warm table grants and releases without allocating, and so does a
// transaction's second park and wake. The Txn is the one allocation a
// transaction costs: the transactions here are begun before counting.
func TestLockGrantReleaseAllocatesNothing(t *testing.T) {
	const runs = 100
	m := NewManager()
	lt := m.locks
	// Warm the table: a spare head on every stripe, every stripe's map
	// storage made.
	warm, seen := m.Begin(), map[*lockStripe]bool{}
	for r := uint64(1); len(seen) < lockStripes; r++ {
		if st := lt.stripe(r); !seen[st] {
			seen[st] = true
			mustLock(t, warm, r, LockExclusive)
		}
	}
	if err := warm.Commit(); err != nil {
		t.Fatal(err)
	}
	begin := func(n int) []*Txn {
		txs := make([]*Txn, n)
		for i := range txs {
			txs[i] = m.Begin()
		}
		return txs
	}

	txs, next, fresh := begin(2*(runs+1)), 0, uint64(1<<32)
	if n := testing.AllocsPerRun(runs, func() {
		for _, mode := range [...]LockMode{LockShared, LockExclusive} {
			tx := txs[next]
			next++
			fresh++
			if err := tx.Lock(fresh, mode); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("S and X grant and release of fresh resources: %.0f allocations, want 0", n)
	}

	// The waiters park on a goroutine of their own, each once on a
	// resource of its own before the park that is counted.
	type request struct {
		tx  *Txn
		res uint64
	}
	reqs, got := make(chan request), make(chan error)
	defer close(reqs)
	go func() {
		for r := range reqs {
			got <- r.tx.Lock(r.res, LockExclusive)
		}
	}()
	parkWake := func(h, w *Txn, res uint64) {
		mustLock(t, h, res, LockExclusive)
		reqs <- request{w, res}
		for w.waiting.Load() == nil {
			runtime.Gosched()
		}
		if err := h.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	}
	holders, waiters := begin(2*(runs+1)), begin(runs+1)
	for i, w := range waiters {
		parkWake(holders[runs+1+i], w, uint64(1<<40+i))
	}
	next = 0
	if n := testing.AllocsPerRun(runs, func() {
		parkWake(holders[next], waiters[next], 1<<48)
		if err := waiters[next].Commit(); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 0 {
		t.Errorf("second park and wake: %.0f allocations, want 0", n)
	}
}

// A held set past heldScan finds its locks through the index: it must
// agree with a map on every lookup, whatever the order of the grants.
func TestHeldSetIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h heldSet
	model := map[uint64]LockMode{}
	for i := 0; i < 5000; i++ {
		res := uint64(rng.Intn(3000)) // repeats re-raise; 0 is a resource too
		mode := LockMode(1 + rng.Intn(2))
		h.raise(res, mode)
		model[res] = max(model[res], mode)
		probe := uint64(rng.Intn(4000))
		if got := h.mode(probe); got != model[probe] {
			t.Fatalf("after %d grants: mode(%d) = %v, want %v", i+1, probe, got, model[probe])
		}
	}
	if len(h.locks) != len(model) {
		t.Fatalf("%d locks listed, %d held", len(h.locks), len(model))
	}
	for _, l := range h.locks {
		if model[l.res] != l.mode {
			t.Fatalf("lock %d listed at %v, held at %v", l.res, l.mode, model[l.res])
		}
	}
}
