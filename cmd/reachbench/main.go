// reachbench regenerates every table and figure of the REACH paper's
// evaluation and the ablation experiments derived from its design
// claims (see DESIGN.md for the experiment index).
//
//	reachbench                        # run everything
//	reachbench -table1                # just Table 1
//	reachbench -figure1 -figure2
//	reachbench -run E1,E4,E10         # selected experiments
//	reachbench -n 20000               # events per configuration
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "regenerate Table 1 only")
		figure1 = flag.Bool("figure1", false, "trace the Open OODB architecture (Figure 1)")
		figure2 = flag.Bool("figure2", false, "trace the ECA message flow (Figure 2)")
		run     = flag.String("run", "", "comma-separated experiment ids (E1..E14); empty = all")
		n       = flag.Int("n", 5000, "events per measured configuration")
	)
	flag.Parse()

	specific := *table1 || *figure1 || *figure2 || *run != ""
	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		if id != "" {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	wantExp := func(id string) bool {
		if !specific {
			return true
		}
		return want[id]
	}

	if *table1 || !specific {
		printTable1()
	}
	if *figure1 || !specific {
		printFigure1()
	}
	if *figure2 || !specific {
		printFigure2()
	}

	type exp struct {
		id   string
		desc string
		run  func() []bench.Row
	}
	experiments := []exp{
		{"E1", "sentry overhead classes (§6.2, [WSTR93])", func() []bench.Row { return bench.RunE1(*n) }},
		{"E2", "layered vs integrated architecture (§4)", func() []bench.Row { return bench.RunE2(*n) }},
		{"E3", "sequential vs parallel rule execution (§6.4)", func() []bench.Row {
			return bench.RunE3([]int{4}, []int{1, 64, 512}, *n/50)
		}},
		{"E4", "synchronous vs asynchronous composition (§2)", func() []bench.Row {
			return bench.RunE4([]int{1, 8, 32}, *n)
		}},
		{"E5", "immediate-composite stall — the (N) of Table 1 (§3.2)", func() []bench.Row {
			return bench.RunE5([]int{1, 8, 32}, *n)
		}},
		{"E6", "consumption policies (§3.4)", func() []bench.Row { return bench.RunE6(*n) }},
		{"E7", "event life-spans and semi-composed GC (§3.3)", func() []bench.Row {
			return bench.RunE7(50, *n/50)
		}},
		{"E8", "many small composers vs monolithic graph (§6.3)", func() []bench.Row {
			return bench.RunE8(16, *n)
		}},
		{"E9", "distributed vs central event history (§6.3)", func() []bench.Row {
			return bench.RunE9(8, *n/8)
		}},
		{"E10", "selective ECA-manager dispatch vs global scan (§6.4)", func() []bench.Row {
			return bench.RunE10([]int{10, 100, 1000}, *n)
		}},
		{"E11", "nested subtransaction overhead (§4, §6.4)", func() []bench.Row { return bench.RunE11(*n) }},
		{"E12", "storage substrate: WAL, commit force, recovery", func() []bench.Row { return bench.RunE12(*n) }},
		{"E13", "contended commit path: group commit vs fsync-per-commit (§6)", func() []bench.Row {
			return bench.RunE13(8, *n/10)
		}},
		{"E14", "overload governor: goodput and p99 at 1x/2x/4x offered load, on vs ablated (§6)", func() []bench.Row {
			return bench.RunE14(2, 300*time.Millisecond)
		}},
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	if bad := unknownExperiments(want, ids); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "reachbench: unknown experiment id(s) %s (known: %s)\n",
			strings.Join(bad, ", "), strings.Join(ids, ", "))
		os.Exit(2)
	}
	for _, e := range experiments {
		if !wantExp(e.id) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.desc)
		printRows(e.run())
	}
}

// unknownExperiments returns the requested ids that name no known
// experiment, sorted. An id typo must fail loudly instead of silently
// running nothing.
func unknownExperiments(want map[string]bool, known []string) []string {
	k := make(map[string]bool, len(known))
	for _, id := range known {
		k[id] = true
	}
	var bad []string
	for id := range want {
		if !k[id] {
			bad = append(bad, id)
		}
	}
	sort.Strings(bad)
	return bad
}

func printTable1() {
	fmt.Println("=== Table 1: supported combinations of event categories and coupling modes ===")
	if bad := bench.VerifyTable1(); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "MISMATCH against the paper: %v\n", bad)
		os.Exit(1)
	}
	rows := bench.Table1Rows()
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range rows {
		for i, c := range r {
			fmt.Printf("%-*s  ", widths[i], c)
		}
		fmt.Println()
	}
	fmt.Println("(regenerated from eca.Supported; verified cell-for-cell against the paper)")
	fmt.Println("(all commit / all abort range over the constituents with a transaction: temporal")
	fmt.Println(" constituents contribute nothing, and no occurrence from before a restart reaches")
	fmt.Println(" a composer after it, since semi-composed state lives only in memory)")
	fmt.Println("(a parallel- or exclusive-causal rule waits at commit for its trigger as a lock wait;")
	fmt.Println(" when a cycle passes through that wait, the rule is the deadlock victim, never the")
	fmt.Println(" trigger, and retries once the trigger has resolved)")
}

func printFigure1() {
	fmt.Println("\n=== Figure 1: Open OODB architecture — module activation trace ===")
	dir, err := os.MkdirTemp("", "reach-figure1")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	lines, err := bench.Figure1Trace(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println("  " + l)
	}
}

func printFigure2() {
	fmt.Println("\n=== Figure 2: ECA-oriented architecture — message flow trace ===")
	lines, err := bench.Figure2Trace()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println("  " + l)
	}
}

func printRows(rows []bench.Row) {
	wc := 0
	for _, r := range rows {
		if len(r.Config) > wc {
			wc = len(r.Config)
		}
	}
	for _, r := range rows {
		fmt.Printf("  %-*s  %10.0f ns/op", wc, r.Config, r.NsPerOp)
		if r.Extra != "" {
			fmt.Printf("  [%s]", r.Extra)
		}
		fmt.Println()
	}
}
