package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// repeated is what -repeat writes and -compare reads: the same workloads
// run once per seed.
type repeated struct {
	Env     environment `json:"env"`
	Seeds   []int64     `json:"seeds"`
	Seconds float64     `json:"seconds"`
	Scale   float64     `json:"scale"`
	Runs    []report    `json:"runs"`
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is how the driver measures spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(v []float64) (med, q1, q3, spread float64) {
	q1, med, q3 = quartiles(v)
	if med != 0 {
		spread = (q3 - q1) / med
	}
	return med, q1, q3, spread
}

// loadBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json, looked for in the current directory and its parent (the
// benchmark runs from the repository root or from benchmark/).
func loadBounds() (map[string]float64, error) {
	var raw []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found here or one directory up: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// valuesOf collects one end-to-end metric of one workload over the runs.
func (r *repeated) valuesOf(workload, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		for _, p := range run.Passes {
			if p.Workload == workload && !p.Traced {
				out = append(out, p.Metrics[metric])
			}
		}
	}
	return out
}

func (r *repeated) workloads() []string {
	var out []string
	for _, p := range r.Runs[0].Passes {
		if !p.Traced {
			out = append(out, p.Workload)
		}
	}
	return out
}

// repeatRuns runs the untraced pass of the selected workloads once per
// seed and prints median, quartiles and spread of every end-to-end
// metric against its bound: how the bounds in BENCHMARK.json were derived.
func repeatRuns(cfg config, selected []int, k int, jsonOut string) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rep := repeated{Env: readEnvironment(cfg.dir), Seconds: cfg.seconds, Scale: cfg.scale}
	ok := true
	for i := 0; i < k; i++ {
		run := cfg
		run.seed = cfg.seed + int64(i)
		rep.Seeds = append(rep.Seeds, run.seed)
		one := report{Env: rep.Env, Seed: run.seed, Seconds: run.seconds, Scale: run.scale}
		for _, wi := range selected {
			w := workloads[wi]
			res := guarded(run, func(t *tally) *passResult { return runEndToEnd(w.name, w.new, run, t) }, w.name, false)
			fmt.Printf("seed %d %s: correct=%v attempted=%d failed=%d %s\n",
				run.seed, w.name, res.Correct, res.Attempted, res.Failed, res.Error)
			one.Passes = append(one.Passes, res)
			ok = ok && res.Correct
		}
		rep.Runs = append(rep.Runs, one)
	}
	fmt.Printf("\n%-16s %-18s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range rep.workloads() {
		for _, d := range endToEnd {
			med, q1, q3, spread := spreadOf(rep.valuesOf(w, d.name))
			verdict := "ok"
			if spread > bounds[d.name] {
				verdict = "unresolved"
			}
			fmt.Printf("%-16s %-18s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n",
				w, d.name, med, q1, q3, 100*spread, 100*bounds[d.name], verdict)
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// compareFiles judges result set b against a, per (workload, metric):
// regressed when b's median is worse than a's by more than the bound,
// unresolved when either side's spread exceeds the bound, else ok. It
// refuses sets that are not comparable.
func compareFiles(pathA, pathB string) int {
	var a, b repeated
	for path, into := range map[string]*repeated{pathA: &a, pathB: &b} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, into)
		}
		if err == nil && len(into.Runs) == 0 {
			err = fmt.Errorf("no runs (not a -repeat result?)")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	switch {
	case a.Env.NumCPU != b.Env.NumCPU:
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: num_cpu %d vs %d\n", a.Env.NumCPU, b.Env.NumCPU)
		return 2
	case a.Scale != b.Scale || a.Seconds != b.Seconds:
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: scale %g/%g s vs %g/%g s\n", a.Scale, a.Seconds, b.Scale, b.Seconds)
		return 2
	case !slices.Equal(a.Seeds, b.Seeds):
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: seed sets %v vs %v\n", a.Seeds, b.Seeds)
		return 2
	}
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	regressed := false
	fmt.Printf("%-16s %-18s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "spread", "median b", "spread", "b vs a", "bound", "verdict")
	for _, w := range a.workloads() {
		for _, d := range endToEnd {
			va, vb := a.valuesOf(w, d.name), b.valuesOf(w, d.name)
			if len(vb) == 0 {
				continue
			}
			ma, _, _, sa := spreadOf(va)
			mb, _, _, sb := spreadOf(vb)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			verdict := "ok"
			switch bound := bounds[d.name]; {
			case max(sa, sb) > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Printf("%-16s %-18s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w, d.name, ma, 100*sa, mb, 100*sb, 100*worse, 100*bounds[d.name], verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
