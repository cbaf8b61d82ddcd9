package eca

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/event"
	"repro/internal/txn"
)

// table1 is the paper's Table 1 (§3.2), and the repository's one copy
// of it: one row per coupling mode, one cell per event category in
// Categories() order — Single Method, Purely Temporal, Composite 1 TX,
// Composite n TXs. A nil cell is one AddRule must refuse. An admitted
// cell says what its rule does in four cases, in this order:
//
//	the trigger commits, the rule writes an object the trigger never touches;
//	the trigger commits, the trigger writes the rule's object too;
//	the trigger aborts, disjoint objects;
//	the trigger aborts, the shared object.
//
// In the n-TX column the trigger is the second of the composite's two
// constituent transactions and the first always commits; the temporal
// column has no trigger, so its "trigger" is a bystander transaction
// open when the clock fires. Where the mode lets the rule begin before
// its trigger ends, the trigger writes the shared object after the
// rule has; otherwise right after the triggering event.
//
// A case reads "<txn> <start> <effect>":
//
//	txn     child: a subtransaction of the trigger; top: a top-level
//	        transaction of its own; -: the action never ran
//	start   before or after the trigger ended, when the action first
//	        started; any: the paper leaves it open, and it is not checked
//	effect  kept: the rule's write is what the database holds once
//	        everything has resolved; lost: it is not
var table1 = []struct {
	mode  Coupling
	cells [4]*[4]string
}{
	{Immediate, [4]*[4]string{
		// §3.2, §6.4: a subtransaction of the trigger, run at the event;
		// the trigger's later write supersedes it and its abort undoes it.
		{"child before kept", "child before lost", "child before lost", "child before lost"},
		nil, // §3.2: a temporal event has no transaction to run inside
		nil, // §3.2 "(N)": every method event would stall for the composers
		nil, // §3.2: which constituent transaction would it run inside?
	}},
	{Deferred, [4]*[4]string{
		// §3.2, §6.4: a subtransaction at the trigger's EOT, after all of
		// the trigger's work; an aborted trigger never reaches EOT.
		{"child before kept", "child before kept", "- - lost", "- - lost"},
		nil, // §3.2: no transaction, so no EOT
		// §3.2: the composite completes within the trigger, whose EOT runs it.
		{"child before kept", "child before kept", "- - lost", "- - lost"},
		nil, // §3.2: whose EOT?
	}},
	{Detached, [4]*[4]string{
		// §3.2: an independent top-level transaction; it commits whatever
		// the trigger does, and a trigger committing later overwrites it.
		{"top any kept", "top any lost", "top any kept", "top any kept"},
		// §3.2: the one mode defined for an event outside any transaction.
		{"top any kept", "top any lost", "top any kept", "top any kept"},
		// §3.2: as for a single method event.
		{"top any kept", "top any lost", "top any kept", "top any kept"},
		// §3.2: independent of every constituent transaction.
		{"top any kept", "top any lost", "top any kept", "top any kept"},
	}},
	{DetachedParallelCausal, [4]*[4]string{
		// §3.2: begins in parallel, commits only if the trigger commits;
		// on a shared write it yields to the trigger and commits after it.
		{"top before kept", "top before kept", "top before lost", "top before lost"},
		nil, // §3.2: no trigger to depend on
		// §3.2: as for a single method event.
		{"top before kept", "top before kept", "top before lost", "top before lost"},
		// §3.2 "(all commit)": one constituent aborting is enough to lose it.
		{"top before kept", "top before kept", "top before lost", "top before lost"},
	}},
	{DetachedSequentialCausal, [4]*[4]string{
		// §3.2: begins only once the trigger has committed, never after an abort.
		{"top after kept", "top after kept", "- - lost", "- - lost"},
		nil, // §3.2: no trigger to follow
		// §3.2: as for a single method event.
		{"top after kept", "top after kept", "- - lost", "- - lost"},
		// §3.2 "(all commit)": begins once both constituents committed.
		{"top after kept", "top after kept", "- - lost", "- - lost"},
	}},
	{DetachedExclusiveCausal, [4]*[4]string{
		// §3.2: a contingency that begins in parallel and commits only if
		// the trigger aborts; on a shared write it yields to the trigger.
		{"top before lost", "top before lost", "top before kept", "top before kept"},
		nil, // §3.2: no trigger to stand in for
		// §3.2: as for a single method event.
		{"top before lost", "top before lost", "top before kept", "top before kept"},
		// §3.2 "(all abort)": the first constituent commits, so the rule never does.
		{"top before lost", "top before lost", "top before lost", "top before lost"},
	}},
}

// table1Cases names the four cases of a cell, in table1's order.
var table1Cases = [4]string{"commit/disjoint", "commit/shared", "abort/disjoint", "abort/shared"}

// TestTable1MatchesPaper holds AddRule and every admitted cell's
// behaviour to table1. Composite cells run under both synchronous and
// asynchronous composition.
func TestTable1MatchesPaper(t *testing.T) {
	if len(table1) != len(Couplings()) {
		t.Fatalf("table1 has %d rows, want one per coupling mode", len(table1))
	}
	for i, row := range table1 {
		if row.mode != Couplings()[i] {
			t.Fatalf("table1 row %d is %v, want %v", i, row.mode, Couplings()[i])
		}
	}
	t.Run("admission", testTable1Admission)
	runTable1Cases(t, "")
}

// The tests below each run the cases of table1 that hold one mode's
// behaviour in one category, under the example test names they replace.
func TestAdmissionRejectsPerTable1(t *testing.T) { testTable1Admission(t) }
func TestImmediateRuleRunsInline(t *testing.T)   { runTable1Cases(t, "immediate/single-method/commit/") }
func TestImmediateRuleEffectsUndoneOnTriggerAbort(t *testing.T) {
	runTable1Cases(t, "immediate/single-method/abort/")
}
func TestDeferredRuleRunsAtEOT(t *testing.T)   { runTable1Cases(t, "deferred/single-method/") }
func TestDetachedRuleIndependent(t *testing.T) { runTable1Cases(t, "detached/single-method/") }
func TestParallelCausalCommitsWithTrigger(t *testing.T) {
	runTable1Cases(t, "parallel-causal/single-method/commit/")
}
func TestParallelCausalAbortsWithTrigger(t *testing.T) {
	runTable1Cases(t, "parallel-causal/single-method/abort/")
}
func TestSequentialCausalStartsAfterTriggerCommit(t *testing.T) {
	runTable1Cases(t, "sequential-causal/single-method/commit/")
}
func TestSequentialCausalSkippedOnTriggerAbort(t *testing.T) {
	runTable1Cases(t, "sequential-causal/single-method/abort/")
}
func TestExclusiveCausalContingency(t *testing.T) {
	runTable1Cases(t, "exclusive-causal/single-method/")
}
func TestCompositeDeferredRuleFiresAtEOT(t *testing.T) { runTable1Cases(t, "deferred/composite-1tx/") }
func TestGlobalCompositeAcrossTxns(t *testing.T)       { runTable1Cases(t, "detached/composite-ntx/") }

// runTable1Cases runs, as subtests, the cases of table1's admitted
// cells whose names begin with prefix, and fails if there are none.
func runTable1Cases(t *testing.T, prefix string) {
	n := 0
	for _, row := range table1 {
		for i, cat := range Categories() {
			cell := row.cells[i]
			if cell == nil {
				continue
			}
			compositions := []bool{false}
			if cat == CompositeSingleTxn || cat == CompositeMultiTxn {
				compositions = []bool{false, true}
			}
			for _, syncComp := range compositions {
				for k, want := range cell {
					commit, shared := k < 2, k%2 == 1
					name := fmt.Sprintf("%v/%v/%s", row.mode, cat, table1Cases[k])
					if syncComp {
						name += "/sync"
					}
					if !strings.HasPrefix(name, prefix) {
						continue
					}
					n++
					t.Run(name, func(t *testing.T) {
						got := runTable1Case(t, row.mode, cat, syncComp, commit, shared)
						if strings.Fields(want)[1] == "any" {
							f := strings.Fields(got)
							got = strings.Join([]string{f[0], "any", f[2]}, " ")
						}
						if got != want {
							t.Errorf("got %q, want %q", got, want)
						}
					})
				}
			}
		}
	}
	if n == 0 {
		t.Fatalf("no case of table1 begins with %q", prefix)
	}
}

// testTable1Admission registers a rule for every pair of condition and
// action modes a rule may have on each category's event: AddRule admits
// it exactly when table1 admits both modes for the category.
func testTable1Admission(t *testing.T) {
	e, _, _ := newTestEngine(t, Options{})
	local := seqComposite("local", algebra.ScopeTransaction)
	global := seqComposite("global", algebra.ScopeGlobal)
	for _, c := range []*algebra.Composite{local, global} {
		if err := e.DefineComposite(c); err != nil {
			t.Fatal(err)
		}
	}
	keys := []string{
		pingKey(),
		event.TemporalSpec{Name: "tick", Temporal: event.Periodic, Period: time.Second}.Key(),
		local.Key(),
		global.Key(),
	}
	admitted := func(mode Coupling, col int) bool { return table1[int(mode)-1].cells[col] != nil }
	n := 0
	for col, cat := range Categories() {
		for _, action := range Couplings() {
			for _, cond := range Couplings() {
				if cond.Phase() > action.Phase() || cond.Detachedness() && !action.Detachedness() {
					continue // not a valid rule in any category
				}
				n++
				err := e.AddRule(&Rule{Name: fmt.Sprintf("r%d", n), EventKey: keys[col],
					CondMode: cond, ActionMode: action, Action: func(*RuleCtx) error { return nil }})
				if want := admitted(cond, col) && admitted(action, col); (err == nil) != want {
					t.Errorf("%v: condition %v, action %v: AddRule = %v, want admitted %v", cat, cond, action, err, want)
				}
			}
		}
	}
}

// table1Run is what one case's rule did, as its action recorded it on
// its first start.
type table1Run struct {
	mu     sync.Mutex
	ran    bool
	txn    string   // child or top
	start  string   // before or after
	leaves []uint64 // the transaction of each constituent of the triggering event
}

// runTable1Case runs one case of a cell and returns its outcome in
// table1's form.
func runTable1Case(t *testing.T, mode Coupling, cat Category, syncComp, commit, shared bool) string {
	e, db, vc := newTestEngine(t, Options{SyncComposition: syncComp})
	// s1 raises the triggering events, s2 is the shared object, s3 the
	// disjoint one, s4 the first constituent's in the n-TX column.
	s1, s2, s3, s4 := newSensor(t, db), newSensor(t, db), newSensor(t, db), newSensor(t, db)
	target := s3
	if shared {
		target = s2
	}
	alarm := event.TemporalSpec{Name: "alarm", Temporal: event.Absolute, At: epoch.Add(time.Minute)}
	key := map[Category]string{SingleMethod: pingKey(), PurelyTemporal: alarm.Key()}[cat]
	if key == "" {
		scope := algebra.ScopeTransaction
		if cat == CompositeMultiTxn {
			scope = algebra.ScopeGlobal
		}
		comp := seqComposite("pair", scope)
		if err := e.DefineComposite(comp); err != nil {
			t.Fatal(err)
		}
		key = comp.Key()
	}

	// first is the n-TX column's first constituent, trig the trigger.
	var first, trig *txn.Txn
	var run table1Run
	wrote := make(chan struct{}, 1)
	if err := e.AddRule(&Rule{Name: "rule", EventKey: key, ActionMode: mode,
		Action: func(rc *RuleCtx) error {
			run.record(rc, first, trig)
			if err := rc.Ctx().Set(target, "val", int64(7)); err != nil {
				return err
			}
			select {
			case wrote <- struct{}{}:
			default:
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}

	invoke := func(tx *txn.Txn, method string, args ...any) {
		t.Helper()
		obj := s1
		if tx == first {
			obj = s4
		}
		if _, err := db.Invoke(tx, obj, method, args...); err != nil {
			t.Fatal(err)
		}
	}
	var leaves []uint64
	switch cat {
	case SingleMethod:
		trig = db.Begin()
		invoke(trig, "ping", int64(1))
		leaves = []uint64{trig.ID()}
	case PurelyTemporal:
		if _, err := e.ArmTemporal(alarm); err != nil {
			t.Fatal(err)
		}
		trig = db.Begin()
		vc.Advance(time.Minute)
		leaves = []uint64{0}
	case CompositeSingleTxn:
		trig = db.Begin()
		invoke(trig, "ping", int64(1))
		invoke(trig, "reset")
		leaves = []uint64{trig.ID(), trig.ID()}
	case CompositeMultiTxn:
		first, trig = db.Begin(), db.Begin()
		invoke(first, "ping", int64(1))
		invoke(trig, "reset")
		leaves = []uint64{first.ID(), trig.ID()}
	}
	rescue := func() {
		for _, tx := range []*txn.Txn{first, trig} {
			if tx != nil {
				_ = tx.Abort()
			}
		}
	}
	if mode != Deferred && mode != DetachedSequentialCausal {
		// The mode lets the rule begin before its trigger's work is done.
		awaitAdvancing(t, vc, "the rule's write", wrote, rescue)
	}

	done := make(chan struct{})
	var trigErr error
	go func() {
		defer close(done)
		if first != nil {
			if trigErr = first.Commit(); trigErr != nil {
				return
			}
		}
		if shared {
			if trigErr = db.Set(trig, s2, "val", int64(9)); trigErr != nil {
				return
			}
		}
		if commit {
			trigErr = trig.Commit()
		} else {
			trigErr = trig.Abort()
		}
		e.DrainComposers()
		e.WaitDetached()
	}()
	awaitAdvancing(t, vc, "the trigger and its rule", done, rescue)
	if trigErr != nil {
		t.Fatalf("trigger: %v", trigErr)
	}
	if dl := e.DeadLetters(); len(dl) != 0 {
		t.Errorf("dead letters %+v: a Table 1 veto is not a rule failure", dl)
	}
	if st := e.Stats(); st.ImmediateFired+st.DeferredFired+st.DetachedFired > 1 {
		t.Errorf("the rule fired %d times, want at most once", st.ImmediateFired+st.DeferredFired+st.DetachedFired)
	}

	tx := db.Begin()
	v, err := db.Get(tx, target, "val")
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	effect := "lost"
	if v == int64(7) {
		effect = "kept"
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	if !run.ran {
		return "- - " + effect
	}
	if !slices.Equal(run.leaves, leaves) {
		t.Errorf("the triggering event's constituents came from transactions %v, want %v", run.leaves, leaves)
	}
	return run.txn + " " + run.start + " " + effect
}

// record notes, on the action's first start, the transaction it runs
// in, whether a trigger was still active, and where the triggering
// event's constituents came from.
func (r *table1Run) record(rc *RuleCtx, triggers ...*txn.Txn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ran {
		return
	}
	r.ran = true
	switch {
	case rc.Txn.IsTop():
		r.txn = "top"
	case rc.Txn.Top() == triggers[len(triggers)-1]:
		r.txn = "child"
	default:
		r.txn = "child of another transaction"
	}
	r.start = "after"
	for _, tx := range triggers {
		if tx != nil && tx.Status() == txn.Active {
			r.start = "before"
		}
	}
	for _, p := range rc.Trigger.Flatten() {
		r.leaves = append(r.leaves, p.Txn)
	}
}
