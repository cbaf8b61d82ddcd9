package eca

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// newExecEngine builds an engine over an in-memory database with the
// monitored Sensor class and the given clock. Retry backoff sleeps on
// the engine clock, so tests that exercise retries use a real clock
// (a virtual clock would park the worker until an Advance nobody
// issues).
func newExecEngine(t *testing.T, opts Options, clk clock.Clock) (*Engine, *oodb.DB) {
	t.Helper()
	db, err := oodb.Open(oodb.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	registerSensor(t, db)
	e := New(db, opts)
	t.Cleanup(e.Close)
	return e, db
}

func registerSensor(t *testing.T, db *oodb.DB) {
	t.Helper()
	sensor := oodb.NewClass("Sensor",
		oodb.Attr{Name: "val", Type: oodb.TInt},
		oodb.Attr{Name: "alarms", Type: oodb.TInt},
	)
	sensor.Monitored = true
	sensor.Method("ping", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "val", args[0])
	})
	sensor.Method("reset", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "val", int64(0))
	})
	if err := db.Dictionary().Register(sensor); err != nil {
		t.Fatal(err)
	}
}

// fireOnce raises the Sensor ping event in its own committed
// transaction, spawning whatever detached rules listen on it.
func fireOnce(t *testing.T, db *oodb.DB, obj *oodb.Object) {
	t.Helper()
	tx := db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit trigger: %v", err)
	}
}

// TestDetachedDeadlockRetry forces two detached rules into a genuine
// lock-order deadlock (A→B vs B→A, rendezvous after the first lock)
// and verifies the victim is retried with backoff until it succeeds:
// retries counted, no dead letters, breakers untouched.
func TestDetachedDeadlockRetry(t *testing.T) {
	e, db := newExecEngine(t, Options{}, clock.NewReal())
	objA := newSensor(t, db)
	objB := newSensor(t, db)

	var gate sync.WaitGroup
	gate.Add(2)
	mk := func(name string, first, second *oodb.Object) *Rule {
		var attempts atomic.Int32
		return &Rule{
			Name: name, EventKey: pingKey(), ActionMode: Detached,
			Action: func(rc *RuleCtx) error {
				n := attempts.Add(1)
				if err := rc.Ctx().Set(first, "alarms", int64(1)); err != nil {
					return err
				}
				if n == 1 {
					// Both rules hold their first lock before either
					// requests its second: the cycle is inevitable.
					gate.Done()
					gate.Wait()
				}
				return rc.Ctx().Set(second, "alarms", int64(2))
			},
		}
	}
	if err := e.AddRule(mk("lockAB", objA, objB)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(mk("lockBA", objB, objA)); err != nil {
		t.Fatal(err)
	}

	fireOnce(t, db, objA)
	e.WaitDetached()

	if got := e.met.retries.Value(); got < 1 {
		t.Fatalf("reach_rule_retries_total = %d, want >= 1", got)
	}
	if dl := e.DeadLetters(); len(dl) != 0 {
		t.Fatalf("deadlock victim dead-lettered instead of retried: %+v", dl)
	}
	for _, b := range e.Breakers() {
		if b.Open || b.Consecutive != 0 {
			t.Fatalf("breaker fed by a retriable abort: %+v", b)
		}
	}
}

// TestDetachedRetriesExhausted drains the retry budget on a rule that
// always aborts as a deadlock victim and verifies the dead-letter
// record: reason, attempt count, retry metric.
func TestDetachedRetriesExhausted(t *testing.T) {
	e, db := newExecEngine(t, Options{}, clock.NewReal())
	obj := newSensor(t, db)

	var attempts atomic.Int32
	if err := e.AddRule(&Rule{
		Name: "victim", EventKey: pingKey(), ActionMode: Detached,
		Retries: 2,
		Action: func(rc *RuleCtx) error {
			attempts.Add(1)
			return fmt.Errorf("forced: %w", txn.ErrDeadlock)
		},
	}); err != nil {
		t.Fatal(err)
	}

	fireOnce(t, db, obj)
	e.WaitDetached()

	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
	if got := e.met.retries.Value(); got != 2 {
		t.Fatalf("reach_rule_retries_total = %d, want 2", got)
	}
	dl := e.DeadLetters()
	if len(dl) != 1 {
		t.Fatalf("dead letters = %+v, want exactly one", dl)
	}
	if dl[0].Reason != "retries-exhausted" || dl[0].Attempts != 3 || dl[0].Rule != "victim" {
		t.Fatalf("dead letter = %+v, want reason retries-exhausted after 3 attempts", dl[0])
	}
	// The dead letter leads to the firing's trace: every attempt aborted.
	tr, ok := e.Tracer().Get(dl[0].Trace)
	aborts := 0
	for _, sp := range tr.Spans {
		if sp.Stage == "abort" && sp.Key == "victim" {
			aborts++
		}
	}
	if !ok || aborts != 3 {
		t.Fatalf("trace %d of the dead letter (found %v) has %d abort spans of victim, want 3", dl[0].Trace, ok, aborts)
	}
}

// TestRetryBackoffCapped pins the backoff of a long retry budget: past
// the doubling steps every retry sleeps the cap (plus jitter), never
// less — the doubling must not overflow into a short or zero sleep.
func TestRetryBackoffCapped(t *testing.T) {
	e, _, vc := newTestEngine(t, Options{})
	for _, attempt := range []int{8, 44, 58, 60} {
		base := vc.PendingTimers()
		done := make(chan bool, 1)
		go func() { done <- e.exec.backoff(attempt) }()
		for vc.PendingTimers() == base {
			runtime.Gosched()
		}
		vc.Advance(retryBackoffMax - time.Nanosecond)
		if vc.PendingTimers() == base {
			t.Fatalf("backoff(%d) woke before the clock moved by the cap %v", attempt, retryBackoffMax)
		}
		vc.Advance(retryBackoffMax / 4)
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("backoff(%d) reported draining", attempt)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("backoff(%d) still asleep past cap plus jitter", attempt)
		}
	}
}

// TestBreakerTripAndRearm walks a permanently failing rule through
// the breaker lifecycle: consecutive failures trip it at the
// threshold, spawns are then rejected straight to the dead-letter
// queue, and RearmRule closes it again.
func TestBreakerTripAndRearm(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{})
	obj := newSensor(t, db)

	var runs atomic.Int32
	if err := e.AddRule(&Rule{
		Name: "perma", EventKey: pingKey(), ActionMode: Detached,
		Breaker: 2,
		Action: func(rc *RuleCtx) error {
			runs.Add(1)
			return errors.New("permanent failure")
		},
	}); err != nil {
		t.Fatal(err)
	}

	fireOnce(t, db, obj)
	e.WaitDetached()
	bs := e.Breakers()
	if len(bs) != 1 || bs[0].Open || bs[0].Consecutive != 1 {
		t.Fatalf("after 1 failure: breakers = %+v", bs)
	}

	fireOnce(t, db, obj)
	e.WaitDetached()
	bs = e.Breakers()
	if len(bs) != 1 || !bs[0].Open || bs[0].Consecutive != 2 {
		t.Fatalf("after 2 failures: breakers = %+v, want open", bs)
	}
	if got := e.met.breakerTrips.Value(); got != 1 {
		t.Fatalf("reach_rule_breaker_trips_total = %d, want 1", got)
	}
	if got := e.met.breakerOpen.Value(); got != 1 {
		t.Fatalf("reach_rule_breaker_open = %d, want 1", got)
	}

	// Open breaker: the spawn is rejected before it reaches the pool.
	fireOnce(t, db, obj)
	e.WaitDetached()
	if got := runs.Load(); got != 2 {
		t.Fatalf("rule ran %d times, want 2 (third spawn rejected at breaker)", got)
	}
	if got := e.met.rejBreaker.Value(); got != 1 {
		t.Fatalf("rejected{breaker-open} = %d, want 1", got)
	}
	dl := e.DeadLetters()
	if len(dl) != 3 || dl[2].Reason != "breaker-open" {
		t.Fatalf("dead letters = %+v, want third with reason breaker-open", dl)
	}
	if recorded, depth := e.met.deadLetters.Value(), e.met.deadDepth.Value(); recorded != 3 || depth != 3 {
		t.Fatalf("reach_rule_deadletter_total = %d, reach_rule_deadletter_depth = %d, want 3 and 3", recorded, depth)
	}

	if e.RearmRule("ghost") {
		t.Fatal("RearmRule invented a breaker record for an unknown rule")
	}
	if !e.RearmRule("perma") {
		t.Fatal("RearmRule(perma) = false, want true")
	}
	if got := e.met.breakerOpen.Value(); got != 0 {
		t.Fatalf("reach_rule_breaker_open after rearm = %d, want 0", got)
	}
	bs = e.Breakers()
	if bs[0].Open || bs[0].Consecutive != 0 {
		t.Fatalf("after rearm: breakers = %+v, want closed", bs)
	}

	fireOnce(t, db, obj)
	e.WaitDetached()
	if got := runs.Load(); got != 3 {
		t.Fatalf("rearmed rule ran %d times, want 3", got)
	}
}

// govern installs a running governor on e whose only resource is the
// detached backlog, degrading at the given level.
func govern(t *testing.T, e *Engine, degraded int64) *governor.Governor {
	t.Helper()
	g := governor.New(governor.Options{Interval: time.Millisecond, Hysteresis: 10 * time.Millisecond})
	g.Register("detached-backlog", e.DetachedBacklog, governor.Levels{Degraded: degraded})
	e.SetGovernor(g)
	g.Start()
	t.Cleanup(g.Stop)
	return g
}

// heldRig is a one-worker engine under a governor that degrades at a
// given detached backlog, with a detached rule that holds the worker
// until release. The rule is released at cleanup at the latest, so a
// failing test cannot leave the engine's Close waiting on it.
type heldRig struct {
	e       *Engine
	g       *governor.Governor
	db      *oodb.DB
	obj     *oodb.Object
	started chan struct{}
	release func()
	ran     atomic.Int32
}

func newHeldRig(t *testing.T, queue int, degraded int64) *heldRig {
	t.Helper()
	e, db, _ := newTestEngine(t, Options{Workers: 1, Queue: queue})
	hold := make(chan struct{})
	r := &heldRig{e: e, g: govern(t, e, degraded), db: db, obj: newSensor(t, db),
		started: make(chan struct{}, 3), release: sync.OnceFunc(func() { close(hold) })}
	t.Cleanup(r.release)
	if err := e.AddRule(&Rule{
		Name: "slowpoke", EventKey: pingKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error {
			r.started <- struct{}{}
			<-hold
			r.ran.Add(1)
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

// assertOneShed checks the single shed decision's bookkeeping after two
// accepted firings: the shed spawn is counted as governor-shed on the
// engine and the governor, dead-lettered with that reason, and never
// runs. The dead letter carries its occurrence's trace: a trace of the
// tracer when the occurrence was raised before the governor degraded,
// none (and one skipped mint counted) when it was raised after.
func (r *heldRig) assertOneShed(t *testing.T, tracedBeforeDegrade bool) {
	t.Helper()
	if got := r.e.met.rejGovernor.Value(); got != 1 {
		t.Fatalf("rejected{governor-shed} = %d, want 1", got)
	}
	if got := r.g.Sheds()[governor.ClassDetached]; got != 1 {
		t.Fatalf("governor detached sheds = %d, want 1", got)
	}
	if got := r.e.met.firedDetached.Value(); got != 2 {
		t.Fatalf("fired{detached} = %d, want 2 (shed spawn must not count)", got)
	}
	dl := r.e.DeadLetters()
	if len(dl) != 1 || dl[0].Reason != "governor-shed" || !strings.Contains(dl[0].Err, "overloaded") {
		t.Fatalf("dead letters = %+v, want one governor-shed entry", dl)
	}
	if tracedBeforeDegrade {
		if _, ok := r.e.Tracer().Get(dl[0].Trace); !ok {
			t.Fatalf("governor-shed dead letter carries trace %d, not a trace of the tracer", dl[0].Trace)
		}
	} else if dl[0].Trace != 0 || r.e.met.tracesShed.Value() != 1 {
		t.Fatalf("governor-shed dead letter carries trace %d after %d skipped mints; want none after one (raised while degraded)",
			dl[0].Trace, r.e.met.tracesShed.Value())
	}
	r.release()
	r.e.WaitDetached()
	if got := r.ran.Load(); got != 2 {
		t.Fatalf("executed %d firings, want 2", got)
	}
}

// TestDetachedOverloadShed fills a Workers=1/Queue=2 executor whose
// governor degrades at one queue's worth of backlog and verifies the
// next spawn is shed: counted, dead-lettered, never executed.
func TestDetachedOverloadShed(t *testing.T) {
	r := newHeldRig(t, 2, 2)
	fireOnce(t, r.db, r.obj) // occupies the single worker...
	<-r.started              // ...and the queue is observably empty again
	fireOnce(t, r.db, r.obj) // queued: the backlog reaches the watermark
	if st := r.g.Evaluate(); st != governor.Degraded {
		t.Fatalf("governor state = %v, want degraded", st)
	}
	fireOnce(t, r.db, r.obj) // shed, and raised untraced
	r.assertOneShed(t, false)
}

// TestParkedSpawnShedsOnDegrade parks a raiser on a full queue and
// verifies that the governor, degrading on the backlog the parked
// spawn itself adds, turns the park into a shed instead of leaving the
// raiser waiting.
func TestParkedSpawnShedsOnDegrade(t *testing.T) {
	r := newHeldRig(t, 1, 3) // running + queued + parked
	fireOnce(t, r.db, r.obj) // occupies the single worker...
	<-r.started
	fireOnce(t, r.db, r.obj) // ...and fills the queue
	parked := make(chan error, 1)
	go func() {
		tx := r.db.Begin()
		_, err := r.db.Invoke(tx, r.obj, "ping", int64(1))
		parked <- errors.Join(err, tx.Commit())
	}()
	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("parked raiser: %v", err)
		}
	case <-time.After(5 * time.Second):
		// Close drains the executor, which unparks the raiser.
		t.Fatal("raiser still parked on the full queue: the governor never shed its spawn")
	}
	r.assertOneShed(t, true)
}

// TestRuleDeadline gives a blocking rule a per-rule timeout and
// verifies the watchdog aborts it, cancels RuleCtx.Context, and
// reports the deadline (not the symptom) in metrics and the
// dead-letter queue.
func TestRuleDeadline(t *testing.T) {
	e, db := newExecEngine(t, Options{}, clock.NewReal())
	obj := newSensor(t, db)

	if err := e.AddRule(&Rule{
		Name: "stuck", EventKey: pingKey(), ActionMode: Detached,
		Timeout: 25 * time.Millisecond,
		Action: func(rc *RuleCtx) error {
			<-rc.Context.Done()
			return rc.Context.Err()
		},
	}); err != nil {
		t.Fatal(err)
	}

	fireOnce(t, db, obj)
	e.WaitDetached()

	if got := e.met.deadlines.Value(); got != 1 {
		t.Fatalf("reach_rule_deadline_total = %d, want 1", got)
	}
	dl := e.DeadLetters()
	if len(dl) != 1 || dl[0].Reason != "deadline" {
		t.Fatalf("dead letters = %+v, want one deadline entry", dl)
	}
	if !strings.Contains(dl[0].Err, "deadline") {
		t.Fatalf("dead letter error %q does not name the deadline", dl[0].Err)
	}
}

// TestRulePanicRecovered pins that a panicking rule body is contained
// in every coupling mode and execution strategy, alone or beside a
// sibling rule on the same event: the panic aborts the firing's
// transaction and becomes that firing's error — a veto of the
// triggering operation (immediate), an EOT error (deferred, and the
// deferred action of an imm/def split), or a dead letter (detached) —
// is counted, leaves its stack in the trace ring, and leaves no
// subtransaction behind, so the trigger still resolves. A sibling runs
// when the firings are independent: parallel siblings and detached
// rules; in a sequence the failing firing ends the set.
func TestRulePanicRecovered(t *testing.T) {
	couplings := []struct {
		name         string
		cond, action Coupling
	}{
		{"immediate", Immediate, Immediate},
		{"deferred", Deferred, Deferred},
		{"imm-cond-def-action", Immediate, Deferred},
		{"detached", Detached, Detached},
	}
	for _, c := range couplings {
		for exec, execName := range []string{SequentialExec: "sequential", ParallelExec: "parallel"} {
			exec := ExecStrategy(exec)
			for _, rules := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/rules=%d", c.name, execName, rules), func(t *testing.T) {
					e, db, _ := newTestEngine(t, Options{Exec: exec})
					obj := newSensor(t, db)
					holds := func(*RuleCtx) (bool, error) { return true, nil }
					if err := e.AddRule(&Rule{
						Name: "bomb", EventKey: pingKey(), Priority: 1,
						CondMode: c.cond, ActionMode: c.action, Cond: holds,
						Action: func(*RuleCtx) error { panic("kaboom") },
					}); err != nil {
						t.Fatal(err)
					}
					var okRan atomic.Bool
					if rules == 2 {
						if err := e.AddRule(&Rule{
							Name: "ok", EventKey: pingKey(),
							CondMode: c.cond, ActionMode: c.action, Cond: holds,
							Action: func(*RuleCtx) error { okRan.Store(true); return nil },
						}); err != nil {
							t.Fatal(err)
						}
					}

					tx := db.Begin()
					invokeErr := func() (err error) {
						defer func() {
							if p := recover(); p != nil {
								err = fmt.Errorf("panic escaped the engine: %v", p)
							}
						}()
						_, err = db.Invoke(tx, obj, "ping", int64(1))
						return err
					}()
					commitErr := tx.Commit()
					e.WaitDetached()

					const msg = "rule bomb panicked: kaboom"
					switch c.name {
					case "immediate":
						if invokeErr == nil || !strings.Contains(invokeErr.Error(), msg) {
							t.Errorf("invoke error = %v, want the veto %q", invokeErr, msg)
						}
						if commitErr != nil {
							t.Errorf("trigger commit after the veto: %v", commitErr)
						}
					case "detached":
						if invokeErr != nil || commitErr != nil {
							t.Errorf("invoke, commit = %v, %v; want both nil", invokeErr, commitErr)
						}
						dl := e.DeadLetters()
						if len(dl) != 1 || dl[0].Rule != "bomb" || !strings.Contains(dl[0].Err, msg) {
							t.Errorf("dead letters = %+v, want one for the panic", dl)
						}
					default:
						if invokeErr != nil {
							t.Errorf("invoke error = %v, want nil", invokeErr)
						}
						if commitErr == nil || !strings.Contains(commitErr.Error(), msg) {
							t.Errorf("commit error = %v, want the EOT error %q", commitErr, msg)
						}
					}
					if errors.Is(commitErr, txn.ErrChildrenActive) {
						t.Errorf("the panicking firing left its subtransaction active: %v", commitErr)
					}
					if st := tx.Status(); st == txn.Active {
						t.Errorf("trigger still active after Commit returned %v", commitErr)
					}
					if got := e.met.panics.Value(); got != 1 {
						t.Errorf("reach_rule_panics_total = %d, want 1", got)
					}
					spanned := false
					for _, tr := range e.Tracer().Recent(16) {
						for _, sp := range tr.Spans {
							spanned = spanned || sp.Stage == "panic" && strings.Contains(sp.Key, "bomb")
						}
					}
					if !spanned {
						t.Error("no panic span with the rule's stack in the trace ring")
					}
					if want := rules == 2 && (exec == ParallelExec || c.name == "detached"); okRan.Load() != want {
						t.Errorf("sibling rule ran = %v, want %v", okRan.Load(), want)
					}
				})
			}
		}
	}
}

// TestDetachedWorkerSurvivesPanic pins that the executor worker which
// recovered a panicking rule goes on to run the next firing.
func TestDetachedWorkerSurvivesPanic(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{Workers: 1})
	obj := newSensor(t, db)
	if err := e.AddRule(&Rule{
		Name: "bomb", EventKey: pingKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error { panic("kaboom") },
	}); err != nil {
		t.Fatal(err)
	}
	var ok atomic.Bool
	if err := e.AddRule(&Rule{
		Name: "after", EventKey: resetKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error { ok.Store(true); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	fireOnce(t, db, obj)
	e.WaitDetached()
	tx := db.Begin()
	if _, err := db.Invoke(tx, obj, "reset"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.WaitDetached()
	if !ok.Load() {
		t.Fatal("worker did not survive the panic")
	}
}

// TestParallelDeferredPanicIsolated pins the ParallelExec deferred
// batch: a panicking entry surfaces as that entry's error through
// errors.Join at commit, and its sibling still runs.
func TestParallelDeferredPanicIsolated(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{Exec: ParallelExec})
	obj := newSensor(t, db)

	var okRan atomic.Bool
	if err := e.AddRule(&Rule{
		Name: "boomDef", EventKey: pingKey(), ActionMode: Deferred,
		Action: func(rc *RuleCtx) error { panic("deferred kaboom") },
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(&Rule{
		Name: "okDef", EventKey: pingKey(), ActionMode: Deferred,
		Action: func(rc *RuleCtx) error { okRan.Store(true); return nil },
	}); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := db.Invoke(tx, obj, "ping", int64(1)); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
	if err == nil || !strings.Contains(err.Error(), "panicked: deferred kaboom") {
		t.Fatalf("commit error = %v, want the recovered panic", err)
	}
	if !okRan.Load() {
		t.Fatal("sibling deferred rule did not run")
	}
	if got := e.met.panics.Value(); got != 1 {
		t.Fatalf("reach_rule_panics_total = %d, want 1", got)
	}
}

// TestCloseStopsTemporalHandles pins the timer-leak fix: a periodic
// temporal source armed on a virtual clock must leave zero pending
// timers once the engine closes, even though nobody called Stop on
// the handle.
func TestCloseStopsTemporalHandles(t *testing.T) {
	e, _, vc := newTestEngine(t, Options{})
	if _, err := e.ArmTemporal(event.TemporalSpec{
		Name: "tick", Temporal: event.Periodic, Period: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if vc.PendingTimers() == 0 {
		t.Fatal("periodic source armed no timer")
	}
	e.Close()
	if n := vc.PendingTimers(); n != 0 {
		t.Fatalf("%d timers leaked past Close (periodic handle re-armed itself)", n)
	}
}

// TestCloseReleasesGoroutines closes an engine with live workers and
// an armed periodic source and polls until the goroutine count
// returns to its pre-open baseline.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	db, err := oodb.Open(oodb.Options{Clock: clock.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	registerSensor(t, db)
	e := New(db, Options{Workers: 6})
	if _, err := e.ArmTemporal(event.TemporalSpec{
		Name: "tick", Temporal: event.Periodic, Period: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	obj := newSensor(t, db)
	if err := e.AddRule(&Rule{
		Name: "noop", EventKey: pingKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		fireOnce(t, db, obj)
	}
	e.WaitDetached()
	e.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines: %d before open, %d after Close", before, got)
	}
}

// TestDrainWaitDetachedRace hammers WaitDetached and Drain while
// raisers keep spawning detached work. Invariants under -race: every
// accepted spawn executes exactly once, and no rule body starts after
// Drain returns.
func TestDrainWaitDetachedRace(t *testing.T) {
	e, db := newExecEngine(t, Options{Workers: 4, Queue: 16}, clock.NewReal())
	obj := newSensor(t, db)

	var executed atomic.Int64
	if err := e.AddRule(&Rule{
		Name: "count", EventKey: pingKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error { executed.Add(1); return nil },
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var raisers sync.WaitGroup
	for g := 0; g < 4; g++ {
		raisers.Add(1)
		go func() {
			defer raisers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				_, _ = db.Invoke(tx, obj, "ping", int64(1))
				_ = tx.Commit()
			}
		}()
	}
	var waiters sync.WaitGroup
	for g := 0; g < 2; g++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for i := 0; i < 25; i++ {
				e.WaitDetached()
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	atDrain := executed.Load()
	close(stop)
	raisers.Wait()
	waiters.Wait()
	time.Sleep(10 * time.Millisecond)

	if got := executed.Load(); got != atDrain {
		t.Fatalf("rule body ran after Drain returned: %d -> %d", atDrain, got)
	}
	if fired := e.met.firedDetached.Value(); fired != uint64(atDrain) {
		t.Fatalf("accepted %d spawns but executed %d: a spawn was lost", fired, atDrain)
	}
	if got := e.met.rejDraining.Value(); got == 0 {
		t.Log("no spawns were rejected while draining (raisers stopped early); invariants still hold")
	}
}

// TestDrainDeadlineExpires verifies Drain honors its context while a
// rule is still running, and that draining is sticky: the spawn that
// follows is refused.
func TestDrainDeadlineExpires(t *testing.T) {
	e, db := newExecEngine(t, Options{Workers: 1}, clock.NewReal())
	obj := newSensor(t, db)

	hold := make(chan struct{})
	started := make(chan struct{})
	if err := e.AddRule(&Rule{
		Name: "holdup", EventKey: pingKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error {
			close(started)
			<-hold
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	fireOnce(t, db, obj)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}

	fireOnce(t, db, obj) // refused: draining is sticky
	if got := e.met.rejDraining.Value(); got != 1 {
		t.Fatalf("rejected{draining} = %d, want 1", got)
	}

	close(hold)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestDetachedRuleFaultInjection exercises the executor against the
// storage fault substrate: a WAL-append failpoint makes the rule
// transaction's commit fail with an injected (non-retriable) error,
// which must feed the breaker and the dead-letter queue.
func TestDetachedRuleFaultInjection(t *testing.T) {
	db, err := oodb.Open(oodb.Options{Dir: t.TempDir(), Clock: clock.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	registerSensor(t, db)
	e := New(db, Options{})
	t.Cleanup(e.Close)
	obj := newSensor(t, db)
	// Persist the sensor: only persistent objects reach the store (and
	// therefore the WAL failpoint) at commit.
	tx := db.Begin()
	if err := db.Persist(tx, obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	if err := e.AddRule(&Rule{
		Name: "walvictim", EventKey: pingKey(), ActionMode: Detached,
		Action: func(rc *RuleCtx) error {
			<-hold // commit only after the failpoint is armed
			return rc.Ctx().Set(obj, "alarms", int64(7))
		},
	}); err != nil {
		t.Fatal(err)
	}

	fireOnce(t, db, obj) // trigger commits before the failpoint arms
	if err := fault.Arm(fault.SiteWALAppend, "error"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
	close(hold)
	e.WaitDetached()

	dl := e.DeadLetters()
	if len(dl) != 1 || dl[0].Reason != "failed" {
		t.Fatalf("dead letters = %+v, want one failed entry", dl)
	}
	if !strings.Contains(dl[0].Err, "injected") {
		t.Fatalf("dead letter error %q does not carry the injected fault", dl[0].Err)
	}
	bs := e.Breakers()
	if len(bs) != 1 || bs[0].Consecutive != 1 {
		t.Fatalf("breakers = %+v, want one record with a single failure", bs)
	}
}

// TestExecutorStress is the make-stress workhorse: a small governed
// pool, rules that panic, deadlock, fail, and succeed, raisers on
// several goroutines, and a WAL failpoint injecting storage errors
// every few commits. The assertions are liveness and bookkeeping: the
// engine drains within the deadline and every accepted spawn resolved.
func TestExecutorStress(t *testing.T) {
	firings := 300
	if testing.Short() {
		firings = 80
	}
	db, err := oodb.Open(oodb.Options{Dir: t.TempDir(), Clock: clock.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	registerSensor(t, db)
	e := New(db, Options{Workers: 4, Queue: 8})
	t.Cleanup(e.Close)
	govern(t, e, e.DetachedQueue())
	obj := newSensor(t, db)
	// Persist the sensor so rule commits carry WAL traffic for the
	// armed failpoint to inject into.
	ptx := db.Begin()
	if err := db.Persist(ptx, obj); err != nil {
		t.Fatal(err)
	}
	if err := ptx.Commit(); err != nil {
		t.Fatal(err)
	}

	var completions atomic.Int64
	var seq atomic.Int64
	if err := e.AddRule(&Rule{
		Name: "mixed", EventKey: pingKey(), ActionMode: Detached,
		Retries: 2,
		Breaker: 1 << 20, // keep failing rules flowing
		Action: func(rc *RuleCtx) error {
			defer completions.Add(1)
			switch seq.Add(1) % 11 {
			case 3:
				completions.Add(-1) // retried: not a completion yet
				return fmt.Errorf("forced: %w", txn.ErrDeadlock)
			case 7:
				panic("stress kaboom")
			default:
				return rc.Ctx().Set(obj, "alarms", seq.Load())
			}
		},
	}); err != nil {
		t.Fatal(err)
	}

	if err := fault.Arm(fault.SiteWALAppend, "error-every=13"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)

	var raisers sync.WaitGroup
	for g := 0; g < 4; g++ {
		raisers.Add(1)
		go func() {
			defer raisers.Done()
			for i := 0; i < firings/4; i++ {
				tx := db.Begin()
				_, _ = db.Invoke(tx, obj, "ping", int64(i))
				_ = tx.Commit() // may fail at the armed failpoint; fine
			}
		}()
	}
	raisers.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain under stress: %v", err)
	}
	fired := e.met.firedDetached.Value()
	if fired == 0 {
		t.Fatal("stress run accepted no spawns")
	}
	// Every accepted spawn resolved: it either completed an attempt
	// cycle (success or permanent failure) — panics and injected
	// faults land in the dead-letter queue alongside it.
	if got := completions.Load(); uint64(got) > fired {
		t.Fatalf("completions %d exceed accepted spawns %d", got, fired)
	}
	if e.met.panics.Value() == 0 {
		t.Fatal("stress run never exercised panic recovery")
	}
}

// A sequential-causal firing waits for its trigger without holding a
// worker or a queue slot: one transaction raising more of them than the
// pool and the queue hold together still commits, and every firing runs
// after it.
func TestSequentialCausalParksOffTheWorkers(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{Workers: 2, Queue: 4})
	obj := newSensor(t, db)
	var ran atomic.Int32
	if err := e.AddRule(&Rule{
		Name: "sc", EventKey: pingKey(), ActionMode: DetachedSequentialCausal,
		Action: func(*RuleCtx) error { ran.Add(1); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	const firings = 8
	tx := db.Begin()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < firings; i++ {
			if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
				done <- err
				return
			}
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		_ = tx.Abort() // resolves the trigger the parked firings wait on, so Close can drain
		t.Fatalf("trigger raising %d sequential-causal firings wedged (workers 2, queue 4)", firings)
	}
	e.WaitDetached()
	if n := ran.Load(); n != firings {
		t.Fatalf("%d of %d sequential-causal firings ran", n, firings)
	}
}

// Sequential-causal firings of an open trigger leave the workers to the
// other detached rules.
func TestSequentialCausalLeavesWorkersFree(t *testing.T) {
	e, db, _ := newTestEngine(t, Options{Workers: 2})
	obj, other := newSensor(t, db), newSensor(t, db)
	var sc atomic.Int32
	detached := make(chan struct{}, 1)
	for _, r := range []*Rule{
		{Name: "sc", EventKey: pingKey(), ActionMode: DetachedSequentialCausal,
			Action: func(*RuleCtx) error { sc.Add(1); return nil }},
		{Name: "det", EventKey: resetKey(), ActionMode: Detached,
			Action: func(*RuleCtx) error { detached <- struct{}{}; return nil }},
	} {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	trig := db.Begin()
	ping(t, db, trig, obj, 2)
	tx := db.Begin()
	if _, err := db.Invoke(tx, other, "reset"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-detached:
	case <-time.After(5 * time.Second):
		_ = trig.Abort() // frees the workers, so Close can drain
		t.Fatal("detached rule did not run while two sequential-causal firings waited on an open trigger (2 workers)")
	}
	if n := sc.Load(); n != 0 {
		t.Fatalf("%d sequential-causal firings ran before their trigger committed", n)
	}
	if err := trig.Commit(); err != nil {
		t.Fatal(err)
	}
	e.WaitDetached()
	if n := sc.Load(); n != 2 {
		t.Fatalf("%d of 2 sequential-causal firings ran after the commit", n)
	}
}

// Sequential-causal firings of a global composite park and resume while
// its constituents' transactions commit and abort on other goroutines:
// each firing runs exactly when all of its triggers committed, and none
// is lost.
func TestSequentialCausalUnderConcurrentTriggers(t *testing.T) {
	const raisers, txns = 4, 60
	e, db, _ := newTestEngine(t, Options{Workers: 2, Queue: 4})
	comp := seqComposite("ping-reset", algebra.ScopeGlobal)
	if err := e.DefineComposite(comp); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	detected := map[uint64]map[uint64]bool{} // composite Seq → its trigger transactions
	ran := map[uint64]int{}                  // composite Seq → sequential-causal runs
	committed := map[uint64]bool{}
	for _, r := range []*Rule{
		{Name: "all", EventKey: comp.Key(), ActionMode: Detached, Action: func(rc *RuleCtx) error {
			mu.Lock()
			detected[rc.Trigger.Seq] = rc.Trigger.Transactions()
			mu.Unlock()
			return nil
		}},
		{Name: "sc", EventKey: comp.Key(), ActionMode: DetachedSequentialCausal, Action: func(rc *RuleCtx) error {
			mu.Lock()
			ran[rc.Trigger.Seq]++
			mu.Unlock()
			return nil
		}},
	} {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, raisers)
	for g := 0; g < raisers; g++ {
		obj := newSensor(t, db)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx := db.Begin()
				method := "ping"
				if (g+i)%2 == 1 {
					method = "reset"
				}
				var args []any
				if method == "ping" {
					args = []any{int64(i)}
				}
				if _, err := db.Invoke(tx, obj, method, args...); err != nil {
					errs <- err
					return
				}
				// The composite completes while its transaction is open,
				// so its firing parks.
				e.DrainComposers()
				commit := i%3 != 0
				mu.Lock()
				committed[tx.ID()] = commit
				mu.Unlock()
				end := tx.Abort
				if commit {
					end = tx.Commit
				}
				if err := end(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.DrainComposers()
	e.WaitDetached()
	mu.Lock()
	defer mu.Unlock()
	if len(detected) == 0 {
		t.Fatal("no composite detected")
	}
	for seq, trigs := range detected {
		want := 1
		for id := range trigs {
			if !committed[id] {
				want = 0
			}
		}
		if ran[seq] != want {
			t.Errorf("composite %d from transactions %v: sequential-causal rule ran %d times, want %d", seq, trigs, ran[seq], want)
		}
	}
	for seq := range ran {
		if detected[seq] == nil {
			t.Errorf("sequential-causal rule ran for composite %d, which the detached rule never saw", seq)
		}
	}
}
