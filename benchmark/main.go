// Command benchmark is the REACH yardstick: four plant workloads, the
// end-to-end metrics a user of the system sees, and per-layer spans,
// counts and probes taken from outside the layers. See README.md.
//
//	go run . -seed 1                       every workload, untraced then traced
//	go run . -workload plant-rules -trace 0 -seconds 10
//	go run . -repeat 5 -json a.json        five seeds per workload, with spread
//	go run . -compare a.json b.json        verdict per (workload, metric)
//
// The driver contract (BENCHMARK.json) runs it through run.sh with
// --workload, --seed, --seconds and --trace 0|1; the last line of
// standard output is then the contract's JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

var workloads = []struct {
	name string
	new  func() workload
}{
	{"plant-rules", func() workload { return &rulesWorkload{} }},
	{"plant-durable", func() workload { return &durableWorkload{} }},
	{"plant-composite", func() workload { return &compositeWorkload{} }},
	{"plant-contended", func() workload { return &contendedWorkload{} }},
}

// environment is recorded with every result; compare refuses results
// whose CPU count differs.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readEnvironment(dir string) environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), DataDirFS: "in-memory device"}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		env.Kernel = b.String()
	}
	if dir != "" {
		var st syscall.Statfs_t
		if syscall.Statfs(dir, &st) == nil {
			env.DataDirFS = fmt.Sprintf("statfs type 0x%x", st.Type)
		}
	}
	return env
}

// report is what -json writes: one run of the selected workloads.
type report struct {
	Env     environment   `json:"env"`
	Seed    int64         `json:"seed"`
	Seconds float64       `json:"seconds"`
	Scale   float64       `json:"scale"`
	Passes  []*passResult `json:"passes"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		trace    = flag.String("trace", "both", "0 = untraced end-to-end pass, 1 = traced per-layer pass, both")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file (JSON)")
		jsonOut  = flag.String("json", "", "write the full results to this file")
		repeat   = flag.Int("repeat", 0, "run K times with seeds seed..seed+K-1 and report spread per metric")
		compare  = flag.Bool("compare", false, "compare two -repeat result files: -compare a.json b.json")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same operation scripts")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long each pass runs its timed rounds")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies every operation count (the smoke test uses 1/200)")
	flag.StringVar(&cfg.dir, "dir", "", "data directory on the real filesystem (default: in-memory device)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	var selected []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 || *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q or -trace %q\n", *name, *trace)
		return 2
	}
	if cfg.dir != "" {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		// Whatever exit path is taken, no scratch directory stays behind.
		defer func() {
			left, _ := filepath.Glob(filepath.Join(cfg.dir, "d[0-9]*"))
			for _, dir := range left {
				_ = os.RemoveAll(dir) // best-effort cleanup of scratch directories
			}
		}()
	}
	if *repeat > 0 {
		return repeatRuns(cfg, selected, *repeat, *jsonOut)
	}

	rep := report{Env: readEnvironment(cfg.dir), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale}
	fmt.Printf("benchmark: seed %d, %.0f s per pass, scale %g, %d CPUs (GOMAXPROCS %d), %s, kernel %s, data on %s\n",
		cfg.seed, cfg.seconds, cfg.scale, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Kernel, rep.Env.DataDirFS)
	ok := true
	for _, i := range selected {
		w := workloads[i]
		if *trace != "1" {
			res := guarded(cfg, func(t *tally) *passResult { return runEndToEnd(w.name, w.new, cfg, t) }, w.name, false)
			rep.Passes = append(rep.Passes, res)
			printPass(res, endToEnd)
			ok = ok && res.Correct
		}
		if *trace != "0" && ok {
			res := guarded(cfg, func(t *tally) *passResult { return runPerLayer(w.name, w.new, cfg, *traceOut, t) }, w.name, true)
			rep.Passes = append(rep.Passes, res)
			printPass(res, perLayer)
			ok = ok && res.Correct
		}
		if !ok {
			break
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if len(rep.Passes) == 1 {
		// One workload, one pass: the driver contract's result line.
		printContractLine(rep.Passes[0])
	}
	if !ok {
		return 1
	}
	return 0
}

// guarded runs one pass under the watchdog: no run may hang. The
// deadline is five times the expected run time (and inside the driver's
// 180 s limit); on expiry every goroutine's stack goes to standard error,
// the operations the wedged round did not finish count as failed, and the
// pass comes back marked wedged.
func guarded(cfg config, pass func(*tally) *passResult, name string, traced bool) *passResult {
	expected := cfg.seconds + 12*cfg.scale + 2
	deadline := time.Duration(min(5*expected, 170) * float64(time.Second))
	return watchdog(deadline, pass, name, traced)
}

func watchdog(deadline time.Duration, pass func(*tally) *passResult, name string, traced bool) *passResult {
	t := &tally{}
	done := make(chan *passResult, 1)
	go func() { done <- pass(t) }()
	timer := time.NewTimer(deadline) //lint:allow clockusage the watchdog's deadline is wall-clock time
	defer timer.Stop()
	select {
	case res := <-done:
		return res
	case <-timer.C:
	}
	buf := make([]byte, 1<<20)
	fmt.Fprintf(os.Stderr, "benchmark: %s wedged: no result after %v; goroutine stacks follow\n%s\n",
		name, deadline, buf[:runtime.Stack(buf, true)])
	res := newPassResult(name, traced)
	res.Wedged = true
	if p := t.current.Load(); p != nil {
		t.failed.Add(int64(p.unfinished()))
	}
	return res.finish(t, fmt.Errorf("wedged: watchdog fired after %v", deadline))
}

func printPass(res *passResult, defs []metricDef) {
	kind := "end-to-end, untraced"
	if res.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("\n%s (%s): %d rounds, %d operations attempted, %d failed\n",
		res.Workload, kind, res.Rounds, res.Attempted, res.Failed)
	for _, d := range defs {
		v, have := res.Metrics[d.name]
		if !have {
			continue
		}
		dir := "lower is better"
		if d.higher {
			dir = "higher is better"
		}
		samples := ""
		if n := res.Samples[d.name]; n > 0 {
			samples = fmt.Sprintf(", n=%d", n)
		}
		fmt.Printf("  %-40s %14.4f %-6s (%s%s)\n", d.name, v, d.unit, dir, samples)
	}
	switch {
	case res.Wedged:
		fmt.Printf("  WEDGED: %s\n", res.Error)
	case !res.Correct:
		fmt.Printf("  FAILED: %s\n", res.Error)
	default:
		fmt.Println("  oracles passed")
	}
}

// printContractLine prints the driver contract's one-line JSON result.
func printContractLine(res *passResult) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, make(map[string]value)}
	for _, d := range defs {
		out.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
