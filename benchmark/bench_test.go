package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeConfig is 1/200 of the benchmark's size, one round per pass.
var smokeConfig = config{seed: 7, seconds: 0, scale: 1.0 / 200}

// TestSmoke runs every workload's untraced and traced pass, oracles on,
// and checks that each pass reports every metric it is contracted to.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			pass := func(tl *tally) *passResult { return runEndToEnd(w.name, w.new, smokeConfig, tl) }
			if traced {
				defs = perLayer
				out := filepath.Join(t.TempDir(), "spans.json")
				pass = func(tl *tally) *passResult { return runPerLayer(w.name, w.new, smokeConfig, out, tl) }
			}
			res := watchdog(30*time.Second, pass, w.name, traced)
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Error)
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				}
			}
			if traced {
				if got := res.Metrics["trace.coverage_share"]; got <= 0 || got > 1 {
					t.Errorf("%s: trace.coverage_share = %v", w.name, got)
				}
			} else {
				for _, d := range endToEnd {
					if res.Metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, res.Metrics[d.name])
					}
				}
			}
		}
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("smoke test took %v", took)
	}
}

// TestWatchdogFiresOnWedge injects a wedge — a client that never finishes
// an operation — and expects the watchdog to fire within its deadline,
// dump stacks, and charge the unfinished operations as failed.
func TestWatchdogFiresOnWedge(t *testing.T) {
	release := make(chan struct{})
	testHook = func(c *client, i int) {
		if c.id == 1 && i == 3 {
			<-release
		}
	}
	defer func() { testHook = nil }()
	w := workloads[0]
	finished := make(chan struct{})
	start := time.Now()
	res := watchdog(500*time.Millisecond, func(tl *tally) *passResult {
		defer close(finished)
		return runEndToEnd(w.name, w.new, smokeConfig, tl)
	}, w.name, false)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("watchdog took %v to fire", took)
	}
	if !res.Wedged || res.Correct || res.Failed == 0 || !strings.Contains(res.Error, "wedged") {
		t.Errorf("wedged=%v correct=%v failed=%d error=%q", res.Wedged, res.Correct, res.Failed, res.Error)
	}
	close(release) // let the wedged pass run to its end and clean up
	<-finished
}

// TestBenchmarkJSON holds BENCHMARK.json and the metric tables together.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %s [%s] %s", kind, i, g, d.name, d.unit, better)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(v, n=4), which is what the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 3, 9, 7})
	if q1 != 2 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles = %v %v %v, want 2 5 8", q1, q2, q3)
	}
}

// TestCompare checks the verdicts and that incomparable sets are refused.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, cpus int, p50 float64) string {
		r := repeated{Env: environment{NumCPU: cpus}, Seconds: 1, Scale: 1}
		for seed := int64(1); seed <= 5; seed++ {
			r.Seeds = append(r.Seeds, seed)
			pass := newPassResult("plant-rules", false)
			for _, d := range endToEnd {
				pass.Metrics[d.name] = 1
			}
			pass.Metrics["txn_p50_us"] = p50 + float64(seed)/100
			r.Runs = append(r.Runs, report{Seed: seed, Passes: []*passResult{pass}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("a.json", 2, 20)
	if code := compareFiles(base, set("same.json", 2, 20.5)); code != 0 {
		t.Errorf("within the bound: exit %d, want 0", code)
	}
	if code := compareFiles(base, set("slow.json", 2, 30)); code != 1 {
		t.Errorf("50%% slower: exit %d, want 1 (regressed)", code)
	}
	if code := compareFiles(base, set("cpus.json", 4, 20)); code != 2 {
		t.Errorf("different num_cpu: exit %d, want 2 (refused)", code)
	}
}
