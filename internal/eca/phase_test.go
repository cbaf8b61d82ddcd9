package eca

import (
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
)

// phaseSeries maps a firing's span stages to the histogram series that
// carry the same durations.
var phaseSeries = []struct {
	stage, metric, phase string
}{
	{"condition-eval", "reach_rule_phase_seconds", "condition"},
	{"action-exec", "reach_rule_phase_seconds", "action"},
	{"commit", "reach_rule_phase_seconds", "commit"},
	{"abort", "reach_rule_phase_seconds", "abort"},
	{"enqueue-deferred", "reach_deferred_dwell_seconds", ""},
}

// The phase and dwell histograms are published once per rule set, the
// spans once per trace: both must carry exactly the same durations.
// Every coupling path a firing can take runs here — an immediate rule
// whose condition holds and one whose condition fails, an imm-cond /
// def-action split, a deferred rule, a detached rule and a failing
// immediate action — and afterwards each series holds exactly what
// observing the matching spans' durations gives: the same count, sum
// and buckets.
func TestPhaseHistogramsMatchSpans(t *testing.T) {
	for _, x := range execModes {
		t.Run(x.name, func(t *testing.T) {
			e, db := newExecEngine(t, Options{Exec: x.exec}, clock.NewReal())
			obj := newSensor(t, db)
			holds := func(*RuleCtx) (bool, error) { return true, nil }
			fails := func(*RuleCtx) (bool, error) { return false, nil }
			noop := func(*RuleCtx) error { return nil }
			boom := errors.New("boom")
			for _, r := range []*Rule{
				{Name: "cond", EventKey: pingKey(), ActionMode: Immediate, Cond: holds, Action: noop},
				{Name: "quiet", EventKey: pingKey(), ActionMode: Immediate, Cond: fails, Action: noop},
				{Name: "split", EventKey: pingKey(), CondMode: Immediate, ActionMode: Deferred, Cond: holds, Action: noop},
				{Name: "deferred", EventKey: pingKey(), ActionMode: Deferred, Cond: holds, Action: noop},
				{Name: "detached", EventKey: pingKey(), ActionMode: Detached, Cond: holds, Action: noop},
				{Name: "failing", EventKey: resetKey(), ActionMode: Immediate,
					Action: func(*RuleCtx) error { return boom }},
			} {
				if err := e.AddRule(r); err != nil {
					t.Fatal(err)
				}
			}
			const rounds = 5
			for i := 0; i < rounds; i++ {
				fireOnce(t, db, obj)
				tx := db.Begin()
				if _, err := db.Invoke(tx, obj, "reset"); !errors.Is(err, boom) {
					t.Fatalf("reset: %v, want the failing action's error", err)
				}
				_ = tx.Abort()
			}
			e.WaitDetached()

			spans := make(map[string]*obs.Histogram)
			for _, ps := range phaseSeries {
				spans[ps.stage] = new(obs.Histogram)
			}
			perRule := make(map[[2]string]int)
			for _, tr := range e.Tracer().Recent(traceCapacity) {
				if tr.Dropped > 0 {
					t.Fatalf("trace %d dropped %d spans", tr.ID, tr.Dropped)
				}
				for _, sp := range tr.Spans {
					if h := spans[sp.Stage]; h != nil {
						h.Observe(sp.Dur)
					}
					perRule[[2]string{sp.Key, sp.Stage}]++
				}
			}
			for _, ps := range phaseSeries {
				var h *obs.Histogram
				if ps.phase != "" {
					h = e.Metrics().Histogram(ps.metric, "", "phase", ps.phase)
				} else {
					h = e.Metrics().Histogram(ps.metric, "")
				}
				if got, want := h.Snapshot(), spans[ps.stage].Snapshot(); got != want {
					t.Errorf("%s{%s}: count %d sum %dns buckets %v; %q spans: %d summing to %dns, buckets %v",
						ps.metric, ps.phase, got.Count, got.Sum, got.Buckets, ps.stage, want.Count, want.Sum, want.Buckets)
				}
			}

			// Every firing recorded its phases: the spans are the ones each
			// coupling path takes, once per round.
			want := map[[2]string]int{
				{"cond", "condition-eval"}: 1, {"cond", "action-exec"}: 1, {"cond", "commit"}: 1,
				{"quiet", "condition-eval"}: 1, {"quiet", "commit"}: 1,
				{"split", "condition-eval"}: 1, {"split", "commit"}: 2,
				{"split", "enqueue-deferred"}: 1, {"split", "action-exec"}: 1,
				{"deferred", "enqueue-deferred"}: 1, {"deferred", "condition-eval"}: 1,
				{"deferred", "action-exec"}: 1, {"deferred", "commit"}: 1,
				{"detached", "condition-eval"}: 1, {"detached", "action-exec"}: 1, {"detached", "commit"}: 1,
				{"failing", "action-exec"}: 1, {"failing", "abort"}: 1,
			}
			for k, n := range want {
				if got := perRule[k]; got != n*rounds {
					t.Errorf("rule %s: %d %q spans, want %d", k[0], got, k[1], n*rounds)
				}
			}
		})
	}
}
