package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A small-scope explorer for the lock table. Scripts of lock requests,
// commits and aborts run over a small transaction tree, one step at a
// time; after every step a wedge oracle, computed from the rendered
// holders, queues and tree rather than from lock.go's own derivation,
// checks that every parked request can still be answered. Every script
// up to a few steps is enumerated; longer seeded scripts run twice, once
// with the short-cuts reachable and once with lockTable.bypass set, and
// must agree on everything observable after every step: the outcome of
// the operation, holders and queue order per resource, Held() per
// transaction, the derived waits-for edges, and who woke with what.

const diffResources = 2

// treeShapes are the parent of each transaction (-1: top-level).
var treeShapes = [][]int{
	{-1, -1, 0},   // two clients, one running a rule subtransaction
	{-1, 0, 0},    // ParallelExec: two sibling subtransactions
	{-1, 0, 1},    // a cascade: child and grandchild
	{-1, -1, -1},  // three clients
	{-1, 0, 0, 0}, // ParallelExec: three sibling subtransactions
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

func diffScript(rng *rand.Rand, txns, resources, n int) []diffOp {
	var ops []diffOp
	for i := 0; i < n; i++ {
		op := diffOp{txn: rng.Intn(txns), res: uint64(rng.Intn(resources))}
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
	return ops
}

// diffRun executes a script on a fresh manager and returns one line per
// step. Lock requests run on their own goroutines; the driver is the
// only actor, so a request that shows up in a wait queue stays there
// until a later step of the script releases it.
type diffRun struct {
	m       *Manager
	shape   []int
	txns    []*Txn
	waiting []*diffWait
	log     []string
	// wedge is the oracle's first complaint; needless counts deadlock
	// victims whose request the oracle would have let park.
	wedge    string
	needless int
	// Where the script left each transaction, before the clean-up
	// aborts, and whether its last step changed nothing.
	active, parked []bool
	idle           bool
	// quiet skips the per-step log: the explorer reads only the oracle.
	quiet bool
}

type diffWait struct {
	res  uint64
	done chan error
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

// lockView is the rendered lock state the oracle reads: per resource,
// holder index → mode and the queue in order.
type lockView [diffResources]struct {
	holders map[int]LockMode
	queue   []diffReq
}

type diffReq struct {
	txn  int
	mode LockMode
}

func (r *diffRun) view() lockView {
	var v lockView
	for res := uint64(0); res < diffResources; res++ {
		v[res].holders = map[int]LockMode{}
		st := r.m.locks.stripe(res)
		st.mu.Lock()
		if ls := st.locks[res]; ls != nil {
			for _, h := range ls.holders {
				v[res].holders[r.index(h.t)] = h.mode
			}
			for _, w := range ls.queue {
				v[res].queue = append(v[res].queue, diffReq{r.index(w.t), w.mode})
			}
		}
		st.mu.Unlock()
	}
	return v
}

func (r *diffRun) index(t *Txn) int {
	for i, x := range r.txns {
		if x == t {
			return i
		}
	}
	return -1
}

// state renders every observable of the lock table.
func (r *diffRun) state() string {
	var b strings.Builder
	for res, s := range r.view() {
		var holders, queue []string
		for h, mode := range s.holders {
			holders = append(holders, fmt.Sprintf("t%d%v", h, mode))
		}
		for _, q := range s.queue {
			queue = append(queue, fmt.Sprintf("t%d%v", q.txn, q.mode))
		}
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
	fmt.Fprintf(&b, " wf{%s}", strings.Join(r.edges(), ","))
	return b.String()
}

// edges renders the waits-for edges the lock table derives.
func (r *diffRun) edges() []string {
	lt := r.m.locks
	set := map[string]bool{}
	lt.wfMu.Lock()
	for _, t := range r.txns {
		waitsFor(t, func(o *Txn) { set[fmt.Sprintf("t%d>t%d", r.index(t), r.index(o))] = true })
	}
	lt.wfMu.Unlock()
	var edges []string
	for e := range set {
		edges = append(edges, e)
	}
	sort.Strings(edges)
	return edges
}

// stuck returns, per the wedge oracle, the parked requests that cannot
// be answered: a parked request must reach, through the transactions it
// waits for, an active transaction that is neither parked nor an
// ancestor of a parked one — the only kind a script can move forward.
// A parked request waits for the conflicting holders of its resource
// that are not its ancestors and for the requests queued ahead of it;
// any transaction waits for its active children. extra, when set, is
// treated as parked at the tail of its resource's queue.
func (r *diffRun) stuck(v lockView, extra *diffOp) []int {
	n := len(r.txns)
	parkedOn := make([]int, n)
	for i := range parkedOn {
		parkedOn[i] = -1
	}
	if extra != nil {
		mode := LockShared
		if extra.kind == 'X' {
			mode = LockExclusive
		}
		q := &v[extra.res].queue
		*q = append(append([]diffReq(nil), *q...), diffReq{extra.txn, mode})
	}
	for res, s := range v {
		for _, q := range s.queue {
			parkedOn[q.txn] = res
		}
	}
	ancestor := func(a, b int) bool { // a is a proper ancestor of b
		for p := r.shape[b]; p >= 0; p = r.shape[p] {
			if p == a {
				return true
			}
		}
		return false
	}
	active := func(i int) bool { return r.txns[i].Status() == Active }
	runnable := func(i int) bool {
		if !active(i) || parkedOn[i] >= 0 {
			return false
		}
		for j := range r.txns {
			if parkedOn[j] >= 0 && ancestor(i, j) {
				return false
			}
		}
		return true
	}
	next := func(i int) []int {
		var out []int
		if res := parkedOn[i]; res >= 0 {
			s := v[res]
			var mode LockMode
			for _, q := range s.queue {
				if q.txn == i {
					mode = q.mode
					break
				}
				out = append(out, q.txn)
			}
			for h, hm := range s.holders {
				if h != i && !ancestor(h, i) && (hm == LockExclusive || mode == LockExclusive) {
					out = append(out, h)
				}
			}
		}
		for j, p := range r.shape {
			if p == i && active(j) {
				out = append(out, j)
			}
		}
		return out
	}
	var stuck []int
	for i := range r.txns {
		if parkedOn[i] < 0 {
			continue
		}
		seen := map[int]bool{i: true}
		frontier, free := []int{i}, false
		for len(frontier) > 0 && !free {
			x := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, y := range next(x) {
				free = free || runnable(y)
				if !seen[y] {
					seen[y] = true
					frontier = append(frontier, y)
				}
			}
		}
		if !free {
			stuck = append(stuck, i)
		}
	}
	return stuck
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
	r.idle = false
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
		before, held := r.view(), t.holds(op.res, mode)
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
		if outcome == "deadlock" && len(r.stuck(before, &op)) == 0 {
			r.needless++
		}
		r.idle = held || outcome == "deadlock"
	}
	switch outcome {
	case "busy", "children-active", "not-active":
		r.idle = true
	}
	// Requests the step released, in transaction order.
	for i, w := range r.waiting {
		if w != nil && !queuedOn(r.txns[i], w.res) {
			outcome += fmt.Sprintf(" wake:t%d=%s", i, errName(<-w.done))
			r.waiting[i] = nil
		}
	}
	if !r.quiet {
		r.log = append(r.log, fmt.Sprintf("%-8v %s |%s", op, outcome, r.state()))
	}
	if stuck := r.stuck(r.view(), nil); r.wedge == "" && len(stuck) > 0 {
		r.wedge = fmt.Sprintf("after %v: parked %v cannot be answered:%s", op, stuck, r.state())
	}
}

// runDiffScript runs ops and then aborts every transaction, logging
// each clean-up step too: the differential compares them.
func runDiffScript(shape []int, ops []diffOp, bypass bool) *diffRun {
	r := startDiffRun(shape, ops, bypass, false)
	for i := range r.txns { // tops abort their subtrees and cancel every wait
		r.step(diffOp{txn: i, kind: 'a'})
	}
	for i, t := range r.txns {
		if t.waiting.Load() != nil {
			r.log = append(r.log, fmt.Sprintf("t%d still flagged parked", i))
		}
	}
	return r
}

// exploreScript runs ops unlogged, for the oracle alone, and aborts
// every transaction.
func exploreScript(shape []int, ops []diffOp) *diffRun {
	r := startDiffRun(shape, ops, false, true)
	for i, p := range shape {
		if p < 0 {
			_ = r.txns[i].Abort() // cancels the waits in its subtree
		}
	}
	for _, w := range r.waiting {
		if w != nil {
			<-w.done
		}
	}
	return r
}

func startDiffRun(shape []int, ops []diffOp, bypass, quiet bool) *diffRun {
	r := &diffRun{m: NewManager(), shape: shape, quiet: quiet,
		txns: make([]*Txn, len(shape)), waiting: make([]*diffWait, len(shape))}
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
	for i, t := range r.txns {
		r.active = append(r.active, t.Status() == Active)
		r.parked = append(r.parked, r.waiting[i] != nil)
	}
	return r
}

// shrink drops steps from a wedging script while it still wedges.
func shrink(shape []int, ops []diffOp) []diffOp {
	for i := 0; i < len(ops); {
		cand := append(append([]diffOp(nil), ops[:i]...), ops[i+1:]...)
		if exploreScript(shape, cand).wedge != "" {
			ops = cand
		} else {
			i++
		}
	}
	return ops
}

// wedgeReport collects the oracle's complaints, keyed by the shrunk
// script, so the many scripts that reach one wedge report it once.
type wedgeReport map[string]string

func (w wedgeReport) add(shape []int, ops []diffOp) {
	ops = shrink(shape, ops)
	w[fmt.Sprint(shape, ops)] = fmt.Sprintf("tree %v, script %v\n    %s", shape, ops, exploreScript(shape, ops).wedge)
}

func (w wedgeReport) check(t *testing.T) {
	if len(w) == 0 {
		return
	}
	var lines []string
	for _, l := range w {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	t.Errorf("%d wedge(s): a parked request that no step can answer and no ErrDeadlock reported:\n  %s",
		len(lines), strings.Join(lines, "\n  "))
}

func TestLockShortcutsDecideWhatTheFullPathDoes(t *testing.T) {
	scripts := 3000
	if testing.Short() {
		scripts = 300
	}
	var blocked, deadlocks, inherits, needless int
	wedges := wedgeReport{}
	for seed := int64(1); seed <= int64(scripts); seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := treeShapes[rng.Intn(len(treeShapes))]
		ops := diffScript(rng, len(shape), diffResources, 14)
		fastRun := runDiffScript(shape, ops, false)
		fast, full := fastRun.log, runDiffScript(shape, ops, true).log
		if len(fast) != len(full) {
			t.Fatalf("seed %d: %d steps logged with the short-cuts, %d without", seed, len(fast), len(full))
		}
		for i := range full {
			if fast[i] != full[i] {
				t.Fatalf("seed %d, tree %v: step %d differs\nshort-cuts: %s\nfull path:  %s\nscript so far:\n  %s",
					seed, shape, i, fast[i], full[i], strings.Join(full[:i], "\n  "))
			}
		}
		if last := full[len(full)-1]; !strings.Contains(last, "wf{}") || strings.Contains(last, "flagged") {
			t.Fatalf("seed %d: lock table not clean after the script: %s", seed, last)
		}
		if fastRun.wedge != "" {
			wedges.add(shape, ops)
		}
		needless += fastRun.needless
		for _, line := range full {
			blocked += strings.Count(line, " blocked ")
			deadlocks += strings.Count(line, " deadlock ")
			if strings.Contains(line, ":c ") && strings.Contains(line, " ok ") {
				inherits++
			}
		}
	}
	wedges.check(t)
	// The scripts must actually reach the interesting cases.
	if blocked == 0 || deadlocks == 0 || inherits == 0 {
		t.Fatalf("scripts too tame: %d blocked, %d deadlocks, %d commits", blocked, deadlocks, inherits)
	}
	t.Logf("%d scripts: %d blocked requests, %d deadlock victims (%d the oracle would have let park), %d commits",
		scripts, blocked, deadlocks, needless, inherits)
}

// TestSmallScopeExplorerFindsNoWedge runs every script of up to four
// steps over each tree shape, both resources and {S, X, commit, abort},
// and checks the wedge oracle after every step. A step that changes
// nothing, and any step on a resolved transaction or (abort aside) a
// parked one, ends its branch: every extension of it is an extension of
// a shorter script that is explored anyway.
func TestSmallScopeExplorerFindsNoWedge(t *testing.T) {
	depth, siblingScripts := 4, 4000
	if testing.Short() {
		depth, siblingScripts = 3, 400
	}
	wedges := wedgeReport{}
	var scripts, needless int
	var explore func(shape []int, ops []diffOp)
	explore = func(shape []int, ops []diffOp) {
		r := exploreScript(shape, ops)
		scripts++
		needless += r.needless
		if r.wedge != "" {
			wedges.add(shape, ops)
			return
		}
		if len(ops) == depth || r.idle {
			return
		}
		for i := range shape {
			for _, op := range []diffOp{{i, 'S', 0}, {i, 'S', 1}, {i, 'X', 0}, {i, 'X', 1}, {i, 'c', 0}, {i, 'a', 0}} {
				if r.active[i] && (!r.parked[i] || op.kind == 'a') && canonical(shape, ops, op) {
					explore(shape, append(ops[:len(ops):len(ops)], op))
				}
			}
		}
	}
	for _, shape := range treeShapes {
		explore(shape, nil)
	}
	// Sibling upgrades under a reading parent — the ParallelExec shape —
	// wedge only after more steps than the enumeration reaches: seeded
	// scripts on one resource cover them.
	siblings, scripts := treeShapes[len(treeShapes)-1], scripts+siblingScripts
	for seed := 1; seed <= siblingScripts; seed++ {
		ops := diffScript(rand.New(rand.NewSource(int64(seed))), len(siblings), 1, 14)
		r := exploreScript(siblings, ops)
		needless += r.needless
		if r.wedge != "" {
			wedges.add(siblings, ops)
		}
	}
	wedges.check(t)
	t.Logf("%d scripts: %d deadlock victims the oracle would have let park", scripts, needless)
}

// canonical reports whether appending op to ops keeps the script the
// first of its symmetry class: resource 1 is not named before resource
// 0, and of two interchangeable transactions — childless, with the same
// parent — the higher-numbered one does not act before the other.
func canonical(shape []int, ops []diffOp, op diffOp) bool {
	seen := map[int]bool{}
	named0 := false
	for _, o := range ops {
		seen[o.txn] = true
		named0 = named0 || (o.kind == 'S' || o.kind == 'X') && o.res == 0
	}
	if (op.kind == 'S' || op.kind == 'X') && op.res == 1 && !named0 {
		return false
	}
	childless := func(i int) bool {
		for _, p := range shape {
			if p == i {
				return false
			}
		}
		return true
	}
	for j := 0; j < op.txn && !seen[op.txn]; j++ {
		if !seen[j] && shape[j] == shape[op.txn] && childless(j) && childless(op.txn) {
			return false
		}
	}
	return true
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
// shared resources in its own random order, so requests queue behind
// other trees and cycles form, through parked children and through
// parents holding what their committed children took. Every failure
// must be a retriable deadlock victim, and the table must end empty.
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
			var victims atomic.Int64
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					private := uint64(100 + g)
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < rounds; i++ {
						top := m.Begin()
						err := top.Lock(private, LockExclusive)
						for _, shared := range rng.Perm(3) {
							var c *Txn
							if err != nil {
								break
							}
							if c, err = top.BeginChild(); err != nil {
								break
							}
							for _, req := range []struct {
								res  uint64
								mode LockMode
							}{
								{private, LockShared}, // the ancestor holds it
								{uint64(shared), LockExclusive},
								{uint64(shared), LockShared},    // re-entry, weaker
								{uint64(shared), LockExclusive}, // re-entry, same
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
							_ = top.Abort()
							if !IsRetriable(err) {
								t.Errorf("tree %d round %d: %v", g, i, err)
								return
							}
							victims.Add(1)
						}
					}
				}(g)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("trees wedged:\n%s", buf[:runtime.Stack(buf, true)])
			}
			for i := range m.locks.stripes {
				if n := len(m.locks.stripes[i].locks); n != 0 {
					t.Fatalf("stripe %d retains %d lock states", i, n)
				}
			}
			t.Logf("%d deadlock victims", victims.Load())
		})
	}
}
