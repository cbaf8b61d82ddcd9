package core

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
)

// newFailingSystem opens an in-memory system with a monitored class
// and one permanently failing detached rule, fires it past its
// breaker threshold, and returns the system plus the admin mux.
func newFailingSystem(t *testing.T) (*System, *http.ServeMux, *oodb.Object) {
	t.Helper()
	sys, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	probe := oodb.NewClass("Probe", oodb.Attr{Name: "n", Type: oodb.TInt})
	probe.Monitored = true
	probe.Method("poke", func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, nil
	})
	if err := sys.RegisterClass(probe); err != nil {
		t.Fatal(err)
	}
	tx := sys.Begin()
	obj, err := sys.DB.NewObject(tx, "Probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Engine.AddRule(&eca.Rule{
		Name:       "failing",
		EventKey:   event.MethodSpec{Class: "Probe", Method: "poke", When: event.After}.Key(),
		ActionMode: eca.Detached,
		Breaker:    2,
		Action:     func(rc *eca.RuleCtx) error { return errors.New("always fails") },
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tx := sys.Begin()
		if _, err := sys.DB.Invoke(tx, obj, "poke"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	sys.Engine.WaitDetached()
	return sys, sys.Admin().Mux(), obj
}

// TestAdminRuleRobustnessEndpoints drives the executor's admin
// surface end to end: breakers listed and re-armable, dead letters
// listed and clearable, and the executor metric families present in
// the Prometheus exposition at /metrics.
func TestAdminRuleRobustnessEndpoints(t *testing.T) {
	_, mux, _ := newFailingSystem(t)

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
		}
		return w
	}
	post := func(path string, wantCode int) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, nil))
		if w.Code != wantCode {
			t.Fatalf("POST %s = %d, want %d: %s", path, w.Code, wantCode, w.Body)
		}
		return w
	}

	var breakers struct {
		Breakers []eca.BreakerState `json:"breakers"`
	}
	if err := json.Unmarshal(get("/rules/breakers").Body.Bytes(), &breakers); err != nil {
		t.Fatal(err)
	}
	if len(breakers.Breakers) != 1 || !breakers.Breakers[0].Open || breakers.Breakers[0].Rule != "failing" {
		t.Fatalf("breakers = %+v, want rule 'failing' open", breakers.Breakers)
	}

	var dead struct {
		DeadLetter []eca.DeadLetter `json:"deadletter"`
	}
	if err := json.Unmarshal(get("/rules/deadletter").Body.Bytes(), &dead); err != nil {
		t.Fatal(err)
	}
	if len(dead.DeadLetter) != 2 || dead.DeadLetter[0].Rule != "failing" {
		t.Fatalf("deadletter = %+v, want two entries for 'failing'", dead.DeadLetter)
	}

	if !strings.Contains(get("/metrics").Body.String(), "# TYPE ") {
		t.Error("/metrics serves no metric family")
	}

	post("/rules/breakers?rearm=nope", http.StatusNotFound)
	post("/rules/breakers?rearm=failing", http.StatusOK)
	if err := json.Unmarshal(get("/rules/breakers").Body.Bytes(), &breakers); err != nil {
		t.Fatal(err)
	}
	if breakers.Breakers[0].Open {
		t.Fatalf("breaker still open after rearm: %+v", breakers.Breakers)
	}

	post("/rules/deadletter", http.StatusBadRequest)
	var cleared struct {
		Cleared int `json:"cleared"`
	}
	if err := json.Unmarshal(post("/rules/deadletter?action=clear", http.StatusOK).Body.Bytes(), &cleared); err != nil {
		t.Fatal(err)
	}
	if cleared.Cleared != 2 {
		t.Fatalf("cleared = %d, want 2", cleared.Cleared)
	}
	if err := json.Unmarshal(get("/rules/deadletter").Body.Bytes(), &dead); err != nil {
		t.Fatal(err)
	}
	if len(dead.DeadLetter) != 0 {
		t.Fatalf("deadletter not empty after clear: %+v", dead.DeadLetter)
	}
}

// TestAdminCheckpointEndpoint drives the durability admin surface on
// a persistent system: GET reports health, POST takes a checkpoint,
// and the checkpoint metric families appear at /metrics.
func TestAdminCheckpointEndpoint(t *testing.T) {
	sys, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	probe := oodb.NewClass("Probe", oodb.Attr{Name: "n", Type: oodb.TInt})
	if err := sys.RegisterClass(probe); err != nil {
		t.Fatal(err)
	}
	tx := sys.Begin()
	obj, err := sys.DB.NewObject(tx, "Probe")
	if err != nil {
		t.Fatal(err)
	}
	// Rooted, so the object is persistent and the commit reaches the
	// WAL — otherwise the checkpoint below would be an idle no-op.
	if err := sys.DB.SetRoot(tx, "probe", obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mux := sys.Admin().Mux()

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/checkpoint", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /checkpoint = %d: %s", w.Code, w.Body)
	}
	var posted struct {
		Checkpointed bool `json:"checkpointed"`
		Checkpoint   struct {
			Checkpoints uint64 `json:"checkpoints"`
			Degraded    bool   `json:"degraded"`
		} `json:"checkpoint"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &posted); err != nil {
		t.Fatal(err)
	}
	if !posted.Checkpointed || posted.Checkpoint.Checkpoints == 0 || posted.Checkpoint.Degraded {
		t.Fatalf("POST /checkpoint body = %+v", posted)
	}

	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/checkpoint", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /checkpoint = %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "\"checkpoints\"") {
		t.Fatalf("GET /checkpoint body missing health: %s", w.Body)
	}

	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "# TYPE ") {
		t.Fatalf("GET /metrics = %d: %s", w.Code, w.Body)
	}
}

// TestAdminRulesReportEvictions: unloading a rule garbage-collects its
// breaker record and its dead letters, and /rules/breakers and
// /rules/deadletter report how many went (reach_rule_breaker_evicted_total,
// reach_rule_deadletter_evicted_total).
func TestAdminRulesReportEvictions(t *testing.T) {
	sys, mux, _ := newFailingSystem(t)
	key := event.MethodSpec{Class: "Probe", Method: "poke", When: event.After}.Key()
	if !sys.Engine.RemoveRule(key, "failing") {
		t.Fatal("RemoveRule(failing) = false")
	}
	for path, want := range map[string]uint64{"/rules/breakers": 1, "/rules/deadletter": 2} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		var body struct {
			Evicted uint64 `json:"evicted"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d (%v): %s", path, w.Code, err, w.Body)
		}
		if body.Evicted != want {
			t.Errorf("GET %s: evicted = %d, want %d", path, body.Evicted, want)
		}
	}
}

// TestDeadLetterCarriesTrace: /rules/deadletter serves each entry's
// trace id, and the tracer resolves it to the triggering occurrence's
// trace — with the firing's abort span when the rule ran and failed,
// without any firing span when an open breaker refused it.
func TestDeadLetterCarriesTrace(t *testing.T) {
	sys, mux, obj := newFailingSystem(t)
	tx := sys.Begin()
	if _, err := sys.DB.Invoke(tx, obj, "poke"); err != nil { // the breaker is open now
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sys.Engine.WaitDetached()

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/rules/deadletter", nil))
	var dead struct {
		DeadLetter []struct {
			Reason string `json:"reason"`
			Trace  uint64 `json:"trace"`
		} `json:"deadletter"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dead); err != nil {
		t.Fatal(err)
	}
	if len(dead.DeadLetter) != 3 {
		t.Fatalf("deadletter = %+v, want two failed entries and one breaker-open", dead.DeadLetter)
	}
	seen := make(map[uint64]bool)
	for _, dl := range dead.DeadLetter {
		if dl.Trace == 0 || seen[dl.Trace] {
			t.Fatalf("dead letter %+v: want its own nonzero trace", dl)
		}
		seen[dl.Trace] = true
		tr, ok := sys.Engine.Tracer().Get(dl.Trace)
		if !ok {
			t.Fatalf("dead letter %+v: trace not in the tracer", dl)
		}
		aborted := false
		for _, sp := range tr.Spans {
			aborted = aborted || sp.Stage == "abort" && sp.Key == "failing"
		}
		if want := dl.Reason == "failed"; aborted != want {
			t.Fatalf("dead letter %+v: trace has the firing's abort span: %v, want %v (spans %+v)", dl, aborted, want, tr.Spans)
		}
	}
	if r := dead.DeadLetter[2].Reason; r != "breaker-open" {
		t.Fatalf("third dead letter reason %q, want breaker-open", r)
	}
}
