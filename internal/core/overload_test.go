package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eca"
	"repro/internal/governor"
	"repro/internal/oodb"
)

// overloadRules triggers one rule per coupling mode off the same
// monitored method, so a single fill() exercises every rung of the
// governor's shed ladder at once.
const overloadRules = `
rule ImmTick {
    prio 5;
    decl Tank *t;
    event after t->fill();
    action imm t->noop();
};

rule DefTick {
    prio 4;
    decl Tank *t;
    event after t->fill();
    action deferred t->noop();
};

rule DetTick {
    prio 3;
    decl Tank *t;
    event after t->fill();
    action detached t->slow();
};
`

// newOverloadSystem opens an in-memory system at test-scale governor
// timings with a Tank class whose slow() method simulates expensive
// detached rule work (slowBy per call).
func newOverloadSystem(t *testing.T, slowBy time.Duration, govOpts governor.Options, engineOpts eca.Options) *System {
	t.Helper()
	sys, err := Open(Options{Engine: engineOpts, Governor: govOpts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	registerTank(t, sys, slowBy)
	return sys
}

// registerTank installs the monitored Tank class and the one-rule-per-
// coupling-mode set on an already-open system.
func registerTank(t *testing.T, sys *System, slowBy time.Duration) {
	t.Helper()
	tank := oodb.NewClass("Tank", oodb.Attr{Name: "level", Type: oodb.TInt})
	tank.Monitored = true
	// fill is a real write so commits append to the WAL — the soak's
	// checkpoint pressure depends on the log actually growing.
	var fills atomic.Int64
	tank.Method("fill", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "level", fills.Add(1))
	})
	tank.Method("noop", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, nil
	})
	tank.Method("slow", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		if slowBy > 0 {
			time.Sleep(slowBy)
		}
		return nil, nil
	})
	if err := sys.RegisterClass(tank); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadRules(overloadRules); err != nil {
		t.Fatal(err)
	}
}

// mkTank creates one Tank object (bypassing admission — setup work).
func mkTank(t *testing.T, sys *System) *oodb.Object {
	t.Helper()
	tx := sys.Begin()
	obj, err := sys.DB.NewObject(tx, "Tank")
	if err != nil {
		t.Fatal(err)
	}
	// Rooted, so the tank is persistent: fill() commits then reach the
	// WAL, which the storage-backpressure assertions depend on — an
	// unrooted object's writes stay in memory and checkpoints are
	// idle no-ops.
	if err := sys.DB.SetRoot(tx, "tank", obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return obj
}

// fire raises one monitored fill() in its own admitted transaction —
// the workload unit of every overload test here.
func fire(sys *System, obj *oodb.Object) error {
	tx, err := sys.BeginTxn()
	if err != nil {
		return err
	}
	if _, err := sys.DB.Invoke(tx, obj, "fill"); err != nil {
		_ = tx.Abort() // secondary to the reported error
		return err
	}
	return tx.Commit()
}

// waitFor polls cond up to 5s; governor state transitions are driven
// by the real-clock evaluation loop, so tests wait rather than step.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPoolSizeDefaultsDecidedOnce opens systems with negative, zero and
// explicit detached pool sizes. Each must start and run a detached rule
// (negative means the default, as zero does), and the detached-backlog
// watermarks must be scaled by the queue the engine actually built, so
// the queue default is decided in one place.
func TestPoolSizeDefaultsDecidedOnce(t *testing.T) {
	for _, c := range []struct{ size, want int }{{-1, 256}, {0, 256}, {7, 7}} {
		sys := newOverloadSystem(t, 0, governor.Options{}, eca.Options{Workers: c.size, Queue: c.size})
		if err := fire(sys, mkTank(t, sys)); err != nil {
			t.Fatalf("size %d: %v", c.size, err)
		}
		sys.Engine.WaitDetached()
		if st := sys.Engine.Stats(); st.DetachedFired != 1 {
			t.Errorf("size %d: %d detached firings, want 1", c.size, st.DetachedFired)
		}
		q := sys.Engine.DetachedQueue()
		if q != int64(c.want) {
			t.Errorf("size %d: engine queue = %d, want %d", c.size, q, c.want)
		}
		levels := map[string]governor.Levels{}
		for _, r := range sys.Governor.Snapshot().Resources {
			levels[r.Name] = r.Levels
		}
		if got, want := levels["detached-backlog"], (governor.Levels{Degraded: q, Shedding: 2 * q}); got != want {
			t.Errorf("size %d: detached-backlog levels = %+v, want %+v", c.size, got, want)
		}
	}
}

// TestOverloadLadderShedsInPriorityOrder walks the governor through
// its states with a synthetic resource and verifies the enforcement
// ladder exactly: Degraded sheds only detached firings; Shedding also
// sheds deferred batches and times out new writers with ErrOverloaded;
// ReadOnly rejects writers outright while reads keep working; and
// immediate rules fire at every rung — they are never shed. After the
// pressure drops the system recovers to healthy and admits again.
func TestOverloadLadderShedsInPriorityOrder(t *testing.T) {
	sys := newOverloadSystem(t, 0, governor.Options{
		Hysteresis:    50 * time.Millisecond,
		AdmitDeadline: 10 * time.Millisecond,
		Interval:      2 * time.Millisecond,
	}, eca.Options{Workers: 2, Queue: 64})
	obj := mkTank(t, sys)
	var load atomic.Int64
	sys.Governor.Register("test-load", load.Load,
		governor.Levels{Degraded: 1, Shedding: 2, ReadOnly: 3})
	waitState := func(want governor.State) {
		waitFor(t, "state "+want.String(), func() bool { return sys.Governor.State() == want })
	}
	immFired := func() uint64 { return sys.Engine.Stats().ImmediateFired }

	// Healthy: all three coupling modes run, nothing sheds.
	for i := 0; i < 3; i++ {
		if err := fire(sys, obj); err != nil {
			t.Fatalf("healthy fire: %v", err)
		}
	}
	waitFor(t, "detached drain", func() bool { return sys.Engine.DetachedBacklog() == 0 })
	if s := sys.Governor.Sheds(); s != [3]uint64{} {
		t.Fatalf("sheds while healthy: %v", s)
	}
	if got := immFired(); got != 3 {
		t.Fatalf("ImmediateFired = %d after 3 fills, want 3", got)
	}

	// Degraded: detached firings shed (dead-lettered), deferred and
	// immediate still run, writers still admitted.
	load.Store(1)
	waitState(governor.Degraded)
	for i := 0; i < 3; i++ {
		if err := fire(sys, obj); err != nil {
			t.Fatalf("degraded fire refused: %v", err)
		}
	}
	s := sys.Governor.Sheds()
	if s[governor.ClassDetached] == 0 {
		t.Error("degraded: no detached sheds")
	}
	if s[governor.ClassDeferred] != 0 || s[governor.ClassWriter] != 0 {
		t.Errorf("degraded shed past the first rung: %v", s)
	}
	if got := immFired(); got != 6 {
		t.Errorf("ImmediateFired = %d after 6 fills, want 6 (immediate is never shed)", got)
	}

	// Shedding: a transaction admitted earlier has its deferred batch
	// shed at commit; new writers park, then fail with ErrOverloaded.
	tx, err := sys.BeginTxn()
	if err != nil {
		t.Fatalf("degraded admission refused: %v", err)
	}
	if _, err := sys.DB.Invoke(tx, obj, "fill"); err != nil {
		t.Fatal(err)
	}
	load.Store(2)
	waitState(governor.Shedding)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit under shedding: %v", err)
	}
	s = sys.Governor.Sheds()
	if s[governor.ClassDeferred] == 0 {
		t.Error("shedding: deferred batch not shed at commit")
	}
	if _, err := sys.BeginTxn(); !errors.Is(err, governor.ErrOverloaded) {
		t.Fatalf("BeginTxn under shedding = %v, want ErrOverloaded", err)
	}
	if s = sys.Governor.Sheds(); s[governor.ClassWriter] == 0 {
		t.Error("shedding: refused writer not counted")
	}
	if got := immFired(); got != 7 {
		t.Errorf("ImmediateFired = %d after 7 fills, want 7", got)
	}

	// ReadOnly: writers rejected outright; reads keep working.
	load.Store(3)
	waitState(governor.ReadOnly)
	if _, err := sys.BeginTxn(); !errors.Is(err, governor.ErrOverloaded) {
		t.Fatalf("BeginTxn under read-only = %v, want ErrOverloaded", err)
	}
	rtx := sys.Begin()
	if _, err := sys.DB.NewObject(rtx, "Tank"); err != nil {
		t.Fatalf("internal txn blocked under read-only: %v", err)
	}
	if err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Recovery: drop the pressure; within the hysteresis window the
	// state walks back to healthy and admissions resume.
	load.Store(0)
	waitState(governor.Healthy)
	tx, err = sys.BeginTxn()
	if err != nil {
		t.Fatalf("admission after recovery: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The sheds were recorded on the governor-shed dead-letter path,
	// visible to operators.
	found := false
	for _, dl := range sys.Engine.DeadLetters() {
		if dl.Reason == "governor-shed" && dl.Rule == "DetTick" {
			found = true
		}
	}
	if !found {
		t.Error("no governor-shed dead letter for DetTick")
	}
}

// TestOverloadHammer runs 8 writers flat out against a 2-worker
// executor whose detached rule is slow — offered load far beyond 2x
// what the pool sustains — and asserts the governor's contract under
// real concurrency. Phase 1 (pool saturation): the governor degrades
// and sheds detached firings — and nothing else; writers keep
// committing. Phase 2 (an escalating resource pushes to Shedding
// while the hammer still runs): deferred batches and then new writers
// are shed too, strictly after detached sheds existed. Throughout:
// the detached backlog and heap stay bounded, immediate rules fire
// for every admitted write (never shed), and once pressure drops the
// system returns to healthy within the hysteresis window.
func TestOverloadHammer(t *testing.T) {
	phase1 := time.Second
	if testing.Short() {
		phase1 = 200 * time.Millisecond
	}
	const (
		hammerers = 8
		workers   = 2
		queue     = 4
	)
	sys := newOverloadSystem(t, 3*time.Millisecond, governor.Options{
		Hysteresis:    100 * time.Millisecond,
		AdmitDeadline: 5 * time.Millisecond,
		Interval:      250 * time.Microsecond,
	}, eca.Options{Workers: workers, Queue: queue})
	obj := mkTank(t, sys)
	// Retune the backlog watermarks so saturation dwells in Degraded:
	// the first rung engages (detached sheds) and self-limits the
	// backlog, so the Shedding rung is never reached from this
	// resource alone — writers stay admitted at 2x+ offered load.
	if !sys.Governor.SetLevels("detached-backlog", governor.Levels{Degraded: 2, Shedding: 30}) {
		t.Fatal("detached-backlog resource not registered")
	}
	// The escalation lever for phase 2: a resource (standing in for
	// WAL lag or a failing checkpointer) that outruns what shedding
	// detached work can relieve.
	var esc atomic.Int64
	sys.Governor.Register("test-escalation", esc.Load, governor.Levels{Degraded: 1, Shedding: 2})

	var committed, refused atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hammerers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch err := fire(sys, obj); {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, governor.ErrOverloaded):
					refused.Add(1)
				default:
					t.Errorf("fire: %v", err)
					return
				}
			}
		}()
	}

	// Phase 1: sample the invariants while only the pool is saturated.
	var maxBacklog int64
	sawDegraded := false
	deadline := time.Now().Add(phase1)
	for time.Now().Before(deadline) {
		s := sys.Governor.Sheds()
		if s[governor.ClassDeferred] != 0 || s[governor.ClassWriter] != 0 {
			t.Fatalf("shed past the detached rung without escalation: %v", s)
		}
		if b := sys.Engine.DetachedBacklog(); b > maxBacklog {
			maxBacklog = b
		}
		if sys.Governor.State() >= governor.Degraded {
			sawDegraded = true
		}
		time.Sleep(time.Millisecond)
	}
	if !sawDegraded {
		t.Fatal("sustained 2x+ load never drove the governor past healthy")
	}
	s := sys.Governor.Sheds()
	if s[governor.ClassDetached] == 0 {
		t.Fatal("pool saturation produced no detached sheds")
	}
	if committed.Load() == 0 {
		t.Fatal("no writes admitted while degraded: goodput collapsed")
	}

	// Phase 2: escalate to Shedding while the hammer still runs. A
	// transaction admitted beforehand has its deferred batch shed at
	// commit; the hammer's new writers park and are refused.
	tx, err := sys.BeginTxn()
	if err != nil {
		t.Fatalf("admission while degraded: %v", err)
	}
	if _, err := sys.DB.Invoke(tx, obj, "fill"); err != nil {
		t.Fatal(err)
	}
	esc.Store(2)
	waitFor(t, "shedding", func() bool { return sys.Governor.State() >= governor.Shedding })
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit under shedding: %v", err)
	}
	waitFor(t, "deferred and writer sheds", func() bool {
		s := sys.Governor.Sheds()
		return s[governor.ClassDeferred] > 0 && s[governor.ClassWriter] > 0
	})

	// Wind down: drop the pressure, stop the hammer.
	esc.Store(0)
	close(stop)
	wg.Wait()
	s = sys.Governor.Sheds()

	// Bounded backlog: queued work + running workers + parked
	// submitters is the ceiling the governor enforces; without it the
	// backlog tracks offered load and grows without bound.
	if limit := int64(queue + workers + hammerers); maxBacklog > limit {
		t.Errorf("detached backlog reached %d, governor bound is %d", maxBacklog, limit)
	}
	// Zero immediate sheds: every admitted fill fired its immediate
	// rule. (>= because refused transactions never got far enough to
	// fire, and the phase-2 probe transaction adds one.)
	if got, want := sys.Engine.Stats().ImmediateFired, uint64(committed.Load()); got < want {
		t.Errorf("ImmediateFired = %d < %d committed writes: immediate work was shed", got, want)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 512<<20 {
		t.Errorf("heap grew to %d MiB under overload", ms.HeapAlloc>>20)
	}

	// Recovery: the backlog drains in tens of milliseconds; healthy
	// requires the raw state to hold for the 100ms hysteresis window.
	waitFor(t, "recovery to healthy", func() bool {
		return sys.Governor.State() == governor.Healthy
	})
	tx, err = sys.BeginTxn()
	if err != nil {
		t.Fatalf("admission after recovery: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	t.Logf("committed=%d refused=%d sheds=%v maxBacklog=%d",
		committed.Load(), refused.Load(), s, maxBacklog)
}

// TestErrOverloadedRetryPath exercises the client contract: a writer
// refused with ErrOverloaded retries with backoff and succeeds once
// the governor recovers; the error is matched with errors.Is.
func TestErrOverloadedRetryPath(t *testing.T) {
	sys := newOverloadSystem(t, 0, governor.Options{
		Hysteresis:    20 * time.Millisecond,
		AdmitDeadline: 5 * time.Millisecond,
		Interval:      2 * time.Millisecond,
	}, eca.Options{Workers: 1, Queue: 4})
	var load atomic.Int64
	sys.Governor.Register("test-load", load.Load, governor.Levels{Shedding: 1})

	load.Store(1)
	waitFor(t, "shedding", func() bool { return sys.Governor.State() == governor.Shedding })
	_, err := sys.BeginTxn()
	if !errors.Is(err, governor.ErrOverloaded) {
		t.Fatalf("BeginTxn = %v, want ErrOverloaded", err)
	}

	// The retry loop a well-behaved client runs: back off, retry,
	// succeed after the governor recovers.
	load.Store(0)
	var tx interface{ Commit() error }
	waitFor(t, "retry to succeed", func() bool {
		got, err := sys.BeginTxn()
		if errors.Is(err, governor.ErrOverloaded) {
			return false
		}
		if err != nil {
			t.Fatalf("retry failed with non-overload error: %v", err)
		}
		tx = got
		return true
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownRefusesNewAdmissions covers the drain ordering contract:
// once shutdown begins the governor turns writers away with
// ErrShutdown (not ErrOverloaded — this refusal is permanent, retrying
// is pointless) while internal transactions still run, so the drain
// and final checkpoint proceed unobstructed.
func TestShutdownRefusesNewAdmissions(t *testing.T) {
	sys := newOverloadSystem(t, 0, governor.Options{}, eca.Options{})
	sys.Governor.BeginShutdown()
	_, err := sys.BeginTxn()
	if !errors.Is(err, governor.ErrShutdown) {
		t.Fatalf("BeginTxn after BeginShutdown = %v, want ErrShutdown", err)
	}
	if errors.Is(err, governor.ErrOverloaded) {
		t.Fatal("shutdown refusal must not read as retryable overload")
	}
	tx := sys.Begin() // internal work keeps running during the drain
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
