package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The lock table's short-cuts — re-entry answered from Txn.held, the
// waits-for mutex skipped for a transaction that never queued — must
// decide exactly what the full path decides. The differential below
// runs seeded scripts over a small transaction tree twice, once with
// the short-cuts reachable and once with lockTable.bypass set, and
// compares everything observable after every step: the outcome of the
// operation, holders and queue order per resource, Held() per
// transaction, the waits-for graph, and who woke with what.

const diffResources = 2

// treeShapes are the parent of each of the three transactions (-1:
// top-level).
var treeShapes = [][3]int{
	{-1, -1, 0}, // two clients, one running a rule subtransaction
	{-1, 0, 0},  // ParallelExec: two sibling subtransactions
	{-1, 0, 1},  // a cascade: child and grandchild
	{-1, -1, -1},
}

type diffOp struct {
	txn  int
	kind byte // 'S', 'X', 'c'ommit, 'a'bort
	res  uint64
}

func (o diffOp) String() string {
	if o.kind == 'S' || o.kind == 'X' {
		return fmt.Sprintf("t%d:%c(%d)", o.txn, o.kind, o.res)
	}
	return fmt.Sprintf("t%d:%c", o.txn, o.kind)
}

func diffScript(rng *rand.Rand, n int) (shape [3]int, ops []diffOp) {
	shape = treeShapes[rng.Intn(len(treeShapes))]
	for i := 0; i < n; i++ {
		op := diffOp{txn: rng.Intn(3), res: uint64(rng.Intn(diffResources))}
		switch p := rng.Intn(10); {
		case p < 4:
			op.kind = 'S'
		case p < 8:
			op.kind = 'X'
		case p < 9:
			op.kind = 'c'
		default:
			op.kind = 'a'
		}
		ops = append(ops, op)
	}
	return shape, ops
}

// diffRun executes a script on a fresh manager and returns one line per
// step. Lock requests run on their own goroutines; the driver is the
// only actor, so a request that shows up in a wait queue stays there
// until a later step of the script releases it.
type diffRun struct {
	m       *Manager
	txns    [3]*Txn
	waiting [3]*diffWait
	log     []string
}

type diffWait struct {
	res  uint64
	done chan error
}

func (r *diffRun) name(t *Txn) string {
	for i, x := range r.txns {
		if x == t {
			return fmt.Sprintf("t%d", i)
		}
	}
	return "?"
}

// queuedOn reports whether t is parked in the wait queue of res.
func queuedOn(t *Txn, res uint64) bool {
	st := t.m.locks.stripe(res)
	st.mu.Lock()
	defer st.mu.Unlock()
	if ls := st.locks[res]; ls != nil {
		for _, w := range ls.queue {
			if w.t == t {
				return true
			}
		}
	}
	return false
}

// state renders every observable of the lock table.
func (r *diffRun) state() string {
	lt := r.m.locks
	var b strings.Builder
	for res := uint64(0); res < diffResources; res++ {
		st := lt.stripe(res)
		st.mu.Lock()
		var holders, queue []string
		if ls := st.locks[res]; ls != nil {
			for h, mode := range ls.holders {
				holders = append(holders, r.name(h)+mode.String())
			}
			for _, w := range ls.queue {
				queue = append(queue, r.name(w.t)+w.mode.String())
			}
		}
		st.mu.Unlock()
		sort.Strings(holders)
		fmt.Fprintf(&b, " r%d{%s|%s}", res, strings.Join(holders, ","), strings.Join(queue, ","))
	}
	for i, t := range r.txns {
		var held []string
		for res, mode := range t.Held() {
			held = append(held, fmt.Sprintf("%d%v", res, mode))
		}
		sort.Strings(held)
		fmt.Fprintf(&b, " t%d=%v[%s]", i, t.Status(), strings.Join(held, ","))
	}
	lt.wfMu.Lock()
	var edges []string
	for t, on := range lt.waitsFor {
		for o := range on {
			edges = append(edges, r.name(t)+">"+r.name(o))
		}
	}
	for t, rs := range lt.waitingOn {
		for res := range rs {
			edges = append(edges, fmt.Sprintf("%s@%d", r.name(t), res))
		}
	}
	lt.wfMu.Unlock()
	sort.Strings(edges)
	fmt.Fprintf(&b, " wf{%s}", strings.Join(edges, ","))
	return b.String()
}

func errName(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDeadlock):
		return "deadlock"
	case errors.Is(err, ErrWaitCancelled):
		return "cancelled"
	case errors.Is(err, ErrChildrenActive):
		return "children-active"
	case errors.Is(err, ErrNotActive):
		return "not-active"
	}
	return err.Error()
}

func (r *diffRun) step(op diffOp) {
	t := r.txns[op.txn]
	var outcome string
	switch {
	case op.kind == 'a':
		outcome = errName(t.Abort())
	case r.waiting[op.txn] != nil:
		outcome = "busy" // its goroutine is parked in Lock
	case op.kind == 'c':
		outcome = errName(t.Commit())
	default:
		mode := LockShared
		if op.kind == 'X' {
			mode = LockExclusive
		}
		w := &diffWait{res: op.res, done: make(chan error, 1)}
		go func() { w.done <- t.Lock(op.res, mode) }()
		for outcome == "" {
			select {
			case err := <-w.done:
				outcome = errName(err)
			default:
				if queuedOn(t, op.res) {
					r.waiting[op.txn], outcome = w, "blocked"
				}
				runtime.Gosched()
			}
		}
	}
	// Requests the step released, in transaction order.
	for i, w := range r.waiting {
		if w != nil && !queuedOn(r.txns[i], w.res) {
			outcome += fmt.Sprintf(" wake:t%d=%s", i, errName(<-w.done))
			r.waiting[i] = nil
		}
	}
	r.log = append(r.log, fmt.Sprintf("%-8v %s |%s", op, outcome, r.state()))
}

func runDiffScript(shape [3]int, ops []diffOp, bypass bool) []string {
	r := &diffRun{m: NewManager()}
	r.m.locks.bypass = bypass
	for i, p := range shape {
		if p < 0 {
			r.txns[i] = r.m.Begin()
		} else {
			r.txns[i], _ = r.txns[p].BeginChild()
		}
	}
	for _, op := range ops {
		r.step(op)
	}
	for i := range r.txns { // tops abort their subtrees and cancel every wait
		r.step(diffOp{txn: i, kind: 'a'})
	}
	lt := r.m.locks
	lt.wfMu.Lock()
	if n := len(lt.waitsFor) + len(lt.waitingOn); n != 0 {
		r.log = append(r.log, fmt.Sprintf("waits-for graph retains %d entries", n))
	}
	lt.wfMu.Unlock()
	for i, t := range r.txns {
		if t.queued.Load() {
			r.log = append(r.log, fmt.Sprintf("t%d still flagged queued", i))
		}
	}
	return r.log
}

func TestLockShortcutsDecideWhatTheFullPathDoes(t *testing.T) {
	scripts := 3000
	if testing.Short() {
		scripts = 300
	}
	var blocked, deadlocks, inherits int
	for seed := int64(1); seed <= int64(scripts); seed++ {
		shape, ops := diffScript(rand.New(rand.NewSource(seed)), 14)
		fast := runDiffScript(shape, ops, false)
		full := runDiffScript(shape, ops, true)
		if len(fast) != len(full) {
			t.Fatalf("seed %d: %d steps logged with the short-cuts, %d without", seed, len(fast), len(full))
		}
		for i := range full {
			if fast[i] != full[i] {
				t.Fatalf("seed %d, tree %v: step %d differs\nshort-cuts: %s\nfull path:  %s\nscript so far:\n  %s",
					seed, shape, i, fast[i], full[i], strings.Join(full[:i], "\n  "))
			}
		}
		if last := full[len(full)-1]; !strings.Contains(last, "wf{}") || strings.Contains(last, "retains") || strings.Contains(last, "flagged") {
			t.Fatalf("seed %d: lock table not clean after the script: %s", seed, last)
		}
		for _, line := range full {
			blocked += strings.Count(line, " blocked ")
			deadlocks += strings.Count(line, " deadlock ")
			if strings.Contains(line, ":c ") && strings.Contains(line, " ok ") {
				inherits++
			}
		}
	}
	// The scripts must actually reach the interesting cases.
	if blocked == 0 || deadlocks == 0 || inherits == 0 {
		t.Fatalf("scripts too tame: %d blocked, %d deadlocks, %d commits", blocked, deadlocks, inherits)
	}
	t.Logf("%d scripts: %d blocked requests, %d deadlock victims, %d commits", scripts, blocked, deadlocks, inherits)
}

// A re-entrant holder's S→X upgrade is not answered from its own held
// map: it still waits for the other S holders.
func TestUpgradeByReentrantHolderWaitsForOtherReaders(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	for _, tx := range []*Txn{a, b, a} { // a re-enters its S lock
		if err := tx.Lock(1, LockShared); err != nil {
			t.Fatal(err)
		}
	}
	upgraded := make(chan error, 1)
	go func() { upgraded <- a.Lock(1, LockExclusive) }()
	for !queuedOn(a, 1) {
		select {
		case err := <-upgraded:
			t.Fatalf("upgrade returned %v while another reader holds the lock", err)
		default:
			runtime.Gosched()
		}
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-upgraded; err != nil {
		t.Fatal(err)
	}
	if got := a.Held()[1]; got != LockExclusive {
		t.Fatalf("a holds %v after the upgrade, want X", got)
	}
	if err := a.Lock(1, LockShared); err != nil { // now answered from a.held
		t.Fatal(err)
	}
	_ = a.Commit()
}

// Sibling subtransactions (ParallelExec) still conflict on a lock their
// common parent holds: the parent's entry lets each in, not past each
// other.
func TestSiblingsConflictUnderParentLock(t *testing.T) {
	m := NewManager()
	top := m.Begin()
	if err := top.Lock(1, LockExclusive); err != nil {
		t.Fatal(err)
	}
	c1, _ := top.BeginChild()
	c2, _ := top.BeginChild()
	if err := c1.Lock(1, LockExclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- c2.Lock(1, LockShared) }()
	for !queuedOn(c2, 1) {
		select {
		case err := <-got:
			t.Fatalf("sibling got the lock (%v) while its sibling holds X", err)
		default:
			runtime.Gosched()
		}
	}
	if err := c1.Commit(); err != nil { // parent already holds X: only c1's entry goes
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if h := top.Held(); len(h) != 1 || h[1] != LockExclusive {
		t.Fatalf("parent holds %v after inheriting, want X on 1", h)
	}
	_ = c2.Commit()
	_ = top.Commit()
}

// TestLockShortcutHammer drives the short-cuts from many goroutines
// under the race detector at several GOMAXPROCS. Each tree takes the
// shared resources in ascending order, so requests queue behind other
// trees (setting the queued flag) but no cycle can form — the waits a
// running child imposes on its parent are invisible to the waits-for
// graph (ROADMAP P0) and must stay out of this test.
func TestLockShortcutHammer(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := NewManager()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					private := uint64(100 + g)
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < rounds; i++ {
						top := m.Begin()
						err := top.Lock(private, LockExclusive)
						for shared := uint64(0); err == nil && shared < 3; shared++ {
							var c *Txn
							if c, err = top.BeginChild(); err != nil {
								break
							}
							for _, req := range []struct {
								res  uint64
								mode LockMode
							}{
								{private, LockShared}, // the ancestor holds it
								{shared, LockExclusive},
								{shared, LockShared},    // re-entry, weaker
								{shared, LockExclusive}, // re-entry, same
							} {
								if err == nil {
									err = c.Lock(req.res, req.mode)
								}
							}
							if err == nil && rng.Intn(4) > 0 {
								err = c.Commit() // the parent inherits
							} else {
								_ = c.Abort()
							}
						}
						if err == nil {
							err = top.Commit()
						}
						if err != nil {
							t.Errorf("tree %d round %d: %v", g, i, err)
							_ = top.Abort()
							return
						}
					}
				}(g)
			}
			wg.Wait()
			lt := m.locks
			lt.wfMu.Lock()
			defer lt.wfMu.Unlock()
			if n := len(lt.waitsFor) + len(lt.waitingOn); n != 0 {
				t.Fatalf("waits-for graph retains %d entries after all transactions resolved", n)
			}
			for i := range lt.stripes {
				if n := len(lt.stripes[i].locks); n != 0 {
					t.Fatalf("stripe %d retains %d lock states", i, n)
				}
			}
		})
	}
}
