package governor

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

var epoch = time.Date(1995, time.March, 6, 0, 0, 0, 0, time.UTC)

// testGov returns a governor on a virtual clock with one resource
// ("load") whose value the returned gauge controls: 10 → degraded,
// 20 → shedding, 30 → read-only.
func testGov(t *testing.T, opts Options) (*Governor, *clock.Virtual, *obs.Gauge) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	opts.Clock = clk
	if opts.Hysteresis == 0 {
		opts.Hysteresis = time.Second
	}
	if opts.Interval == 0 {
		opts.Interval = 100 * time.Millisecond
	}
	g := New(opts)
	load := new(obs.Gauge)
	g.Register("load", load.Value, Levels{Degraded: 10, Shedding: 20, ReadOnly: 30})
	return g, clk, load
}

func TestStateLadderWorseIsImmediate(t *testing.T) {
	g, _, load := testGov(t, Options{})
	if got := g.Evaluate(); got != Healthy {
		t.Fatalf("initial state = %v, want healthy", got)
	}
	for _, step := range []struct {
		v    int64
		want State
	}{{9, Healthy}, {10, Degraded}, {20, Shedding}, {30, ReadOnly}} {
		load.Set(step.v)
		if got := g.Evaluate(); got != step.want {
			t.Fatalf("value %d: state = %v, want %v", step.v, got, step.want)
		}
	}
	// A single evaluation may jump several rungs at once.
	g2, _, load2 := testGov(t, Options{})
	load2.Set(25)
	if got := g2.Evaluate(); got != Shedding {
		t.Fatalf("jump to 25: state = %v, want shedding", got)
	}
}

func TestRecoveryWaitsOutHysteresis(t *testing.T) {
	g, clk, load := testGov(t, Options{Hysteresis: time.Second})
	load.Set(20)
	if got := g.Evaluate(); got != Shedding {
		t.Fatalf("state = %v, want shedding", got)
	}
	load.Set(0)
	if got := g.Evaluate(); got != Shedding {
		t.Fatalf("immediate recovery: state = %v, want shedding (hysteresis)", got)
	}
	clk.Advance(999 * time.Millisecond)
	if got := g.Evaluate(); got != Shedding {
		t.Fatalf("inside window: state = %v, want shedding", got)
	}
	clk.Advance(time.Millisecond)
	if got := g.Evaluate(); got != Healthy {
		t.Fatalf("after window: state = %v, want healthy", got)
	}
}

func TestRecoveryStreakResetsOnRelapse(t *testing.T) {
	g, clk, load := testGov(t, Options{Hysteresis: time.Second})
	load.Set(20)
	g.Evaluate()
	load.Set(0)
	g.Evaluate() // streak starts
	clk.Advance(900 * time.Millisecond)
	load.Set(20)
	g.Evaluate() // relapse: streak over
	load.Set(0)
	clk.Advance(200 * time.Millisecond)
	if got := g.Evaluate(); got != Shedding {
		t.Fatalf("old streak must not count: state = %v, want shedding", got)
	}
	clk.Advance(time.Second)
	if got := g.Evaluate(); got != Healthy {
		t.Fatalf("fresh streak complete: state = %v, want healthy", got)
	}
}

func TestAdmitHealthyAndDegraded(t *testing.T) {
	g, _, load := testGov(t, Options{})
	if err := g.AdmitTxn(); err != nil {
		t.Fatalf("healthy admit: %v", err)
	}
	load.Set(10)
	g.Evaluate()
	if err := g.AdmitTxn(); err != nil {
		t.Fatalf("degraded admit: %v", err)
	}
}

func TestAdmitSheddingTimesOutWithErrOverloaded(t *testing.T) {
	g, clk, load := testGov(t, Options{AdmitDeadline: 250 * time.Millisecond})
	load.Set(20)
	g.Evaluate()
	errc := make(chan error, 1)
	go func() { errc <- g.AdmitTxn() }()
	waitPending(t, clk) // admission parked on the deadline timer
	clk.Advance(250 * time.Millisecond)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AdmitTxn did not return after deadline")
	}
	if sheds := g.Sheds(); sheds[ClassWriter] != 1 {
		t.Fatalf("writer sheds = %d, want 1", sheds[ClassWriter])
	}
}

func TestAdmitSheddingAdmittedOnRecovery(t *testing.T) {
	g, clk, load := testGov(t, Options{Hysteresis: time.Millisecond, AdmitDeadline: time.Hour})
	load.Set(20)
	g.Evaluate()
	errc := make(chan error, 1)
	go func() { errc <- g.AdmitTxn() }()
	waitPending(t, clk)
	load.Set(0)
	g.Evaluate()
	clk.Advance(time.Millisecond)
	g.Evaluate() // hysteresis out: shedding → healthy, broadcasts waiters
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("recovered admit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked AdmitTxn not released by recovery")
	}
}

func TestAdmitReadOnlyRejectsImmediately(t *testing.T) {
	g, _, load := testGov(t, Options{AdmitDeadline: time.Hour})
	load.Set(30)
	g.Evaluate()
	if err := g.AdmitTxn(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("read-only admit err = %v, want ErrOverloaded", err)
	}
}

func TestShutdownRefusesAndReleasesWaiters(t *testing.T) {
	g, clk, load := testGov(t, Options{AdmitDeadline: time.Hour})
	load.Set(20)
	g.Evaluate()
	errc := make(chan error, 1)
	go func() { errc <- g.AdmitTxn() }()
	waitPending(t, clk)
	g.BeginShutdown()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("parked waiter err = %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked AdmitTxn not released by shutdown")
	}
	if err := g.AdmitTxn(); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown admit err = %v, want ErrShutdown", err)
	}
	if !g.ShuttingDown() {
		t.Fatal("ShuttingDown() = false after BeginShutdown")
	}
	g.BeginShutdown() // idempotent
}

func TestShouldShedLadder(t *testing.T) {
	g, _, load := testGov(t, Options{})
	cases := []struct {
		v                          int64
		detached, deferred, writer bool
	}{
		{0, false, false, false},
		{10, true, false, false},
		{20, true, true, false},
		{30, true, true, true},
	}
	for _, c := range cases {
		load.Set(c.v)
		g.Evaluate()
		if got := g.ShouldShed(ClassDetached); got != c.detached {
			t.Errorf("v=%d ShouldShed(detached) = %v, want %v", c.v, got, c.detached)
		}
		if got := g.ShouldShed(ClassDeferred); got != c.deferred {
			t.Errorf("v=%d ShouldShed(deferred) = %v, want %v", c.v, got, c.deferred)
		}
		if got := g.ShouldShed(ClassWriter); got != c.writer {
			t.Errorf("v=%d ShouldShed(writer) = %v, want %v", c.v, got, c.writer)
		}
	}
}

func TestDisabledGovernorIsPassThrough(t *testing.T) {
	g, _, load := testGov(t, Options{Disabled: true})
	load.Set(1000)
	if got := g.Evaluate(); got != Healthy {
		t.Fatalf("disabled Evaluate = %v, want healthy", got)
	}
	if err := g.AdmitTxn(); err != nil {
		t.Fatalf("disabled admit: %v", err)
	}
	if g.ShouldShed(ClassDetached) {
		t.Fatal("disabled governor sheds")
	}
	g.Start() // must not start a loop
	g.Stop()
}

func TestNilGovernorIsSafe(t *testing.T) {
	var g *Governor
	if g.State() != Healthy {
		t.Fatal("nil State != healthy")
	}
	if err := g.AdmitTxn(); err != nil {
		t.Fatalf("nil admit: %v", err)
	}
	if g.ShouldShed(ClassDeferred) {
		t.Fatal("nil governor sheds")
	}
	g.NoteShed(ClassDetached)
	g.BeginShutdown()
	g.Stop()
	if g.ShuttingDown() {
		t.Fatal("nil ShuttingDown")
	}
	if s := g.Snapshot(); s.State != "healthy" {
		t.Fatalf("nil snapshot state %q", s.State)
	}
}

func TestSetLevels(t *testing.T) {
	g, _, load := testGov(t, Options{})
	if g.SetLevels("nope", Levels{}) {
		t.Fatal("SetLevels on unknown resource reported true")
	}
	if !g.SetLevels("load", Levels{Degraded: 5}) {
		t.Fatal("SetLevels on known resource reported false")
	}
	load.Set(5)
	if got := g.Evaluate(); got != Degraded {
		t.Fatalf("retuned watermark: state = %v, want degraded", got)
	}
	// Zero levels make the resource visibility-only.
	g.SetLevels("load", Levels{})
	load.Set(1 << 40)
	// Hysteresis applies to the way down; wait it out.
	g2, clk2, load2 := testGov(t, Options{Hysteresis: time.Millisecond})
	g2.SetLevels("load", Levels{})
	load2.Set(1 << 40)
	if got := g2.Evaluate(); got != Healthy {
		t.Fatalf("visibility-only resource drove state to %v", got)
	}
	_ = clk2
}

func TestEvaluationLoop(t *testing.T) {
	g, clk, load := testGov(t, Options{Interval: 100 * time.Millisecond})
	g.Start()
	g.Start() // idempotent
	defer g.Stop()
	load.Set(30)
	// Each Advance fires at most one loop tick; the loop re-arms After
	// asynchronously, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for g.State() != ReadOnly {
		if time.Now().After(deadline) {
			t.Fatal("loop never evaluated to read-only")
		}
		clk.Advance(100 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	g.Stop()
	g.Stop() // idempotent
}

func TestMetricsBoundToRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	clk := clock.NewVirtual(epoch)
	g := New(Options{Clock: clk, Metrics: reg, Hysteresis: time.Second})
	load := new(obs.Gauge)
	g.Register("load", load.Value, Levels{Degraded: 1})
	load.Set(1)
	g.Evaluate()
	if got := g.stateG.Value(); got != int64(Degraded) {
		t.Fatalf("state gauge = %d, want %d", got, Degraded)
	}
	if got := g.transitions[Degraded].Value(); got != 1 {
		t.Fatalf("degraded transitions = %d, want 1", got)
	}
}

func TestSnapshotAndHandler(t *testing.T) {
	g, _, load := testGov(t, Options{})
	check := func(wantCode int, wantState string) {
		t.Helper()
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
		if rec.Code != wantCode {
			t.Fatalf("/health code = %d, want %d (state %s)", rec.Code, wantCode, wantState)
		}
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("bad /health body: %v", err)
		}
		if snap.State != wantState {
			t.Fatalf("/health state = %q, want %q", snap.State, wantState)
		}
		if len(snap.Resources) != 1 || snap.Resources[0].Name != "load" {
			t.Fatalf("resources = %+v", snap.Resources)
		}
	}
	check(200, "healthy")
	load.Set(10)
	g.Evaluate()
	check(200, "degraded")
	load.Set(20)
	g.Evaluate()
	check(429, "shedding")
	load.Set(30)
	g.Evaluate()
	check(503, "read-only")
	g.BeginShutdown()
	check(503, "read-only")

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/health", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /health code = %d, want 405", rec.Code)
	}
}

func TestConcurrentAdmitHammer(t *testing.T) {
	// Race-detector sanity: many writers admitting while the state
	// flaps and shutdown lands.
	g, clk, load := testGov(t, Options{Hysteresis: time.Millisecond, AdmitDeadline: 10 * time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = g.AdmitTxn()
				g.ShouldShed(ClassDetached)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			load.Set(int64((i % 4) * 10))
			g.Evaluate()
			clk.Advance(5 * time.Millisecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	g.BeginShutdown()
	close(stop)
	wg.Wait()
	if err := g.AdmitTxn(); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-hammer admit err = %v, want ErrShutdown", err)
	}
}

// waitPending blocks until the virtual clock has a pending timer — the
// sign that an AdmitTxn call parked on its deadline.
func waitPending(t *testing.T, clk *clock.Virtual) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no admission parked on the clock")
		}
		time.Sleep(time.Millisecond)
	}
}

// Below Shedding, admission reads the state and the shutdown flag
// without g.mu: with the mutex held elsewhere, a healthy AdmitTxn still
// returns at once, and after BeginShutdown it refuses with ErrShutdown.
func TestAdmitTxnTakesNoLock(t *testing.T) {
	g, _, _ := testGov(t, Options{})
	admit := func(what string, want error) {
		t.Helper()
		errc := make(chan error, 1)
		g.mu.Lock()
		go func() { errc <- g.AdmitTxn() }()
		select {
		case err := <-errc:
			g.mu.Unlock()
			if !errors.Is(err, want) {
				t.Fatalf("%s: AdmitTxn = %v, want %v", what, err, want)
			}
		case <-time.After(5 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: AdmitTxn waited for g.mu:\n%s", what, buf[:runtime.Stack(buf, true)])
		}
	}
	admit("healthy", nil)
	g.BeginShutdown()
	admit("shutting down", ErrShutdown)
}
