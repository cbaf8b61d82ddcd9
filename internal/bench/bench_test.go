package bench

import (
	"strings"
	"testing"
)

// TestReproducerSmoke runs everything cmd/reachbench prints, at the
// smallest size that still exercises each experiment's every
// configuration, so the EXPERIMENTS.md reproducer cannot rot silently.
// E14 is left out: it measures goodput over a wall-clock window rather
// than a fixed amount of work.
func TestReproducerSmoke(t *testing.T) {
	if bad := VerifyTable1(); len(bad) > 0 {
		t.Fatalf("Table 1 mismatches the paper at %v", bad)
	}
	fig1, err := Figure1Trace(t.TempDir())
	if err != nil {
		t.Fatalf("Figure 1: %v", err)
	}
	fig2, err := Figure2Trace()
	if err != nil {
		t.Fatalf("Figure 2: %v", err)
	}
	trace := strings.Join(append(fig1, fig2...), "\n")
	for _, want := range []string{"persistence PM", "transaction PM", `"immediateRule" immediately`,
		`"compositeRule" deferred`, "1 immediate, 1 deferred, 1 composites"} {
		if !strings.Contains(trace, want) {
			t.Errorf("figure traces lack %q:\n%s", want, trace)
		}
	}

	const n = 50
	for _, c := range []struct {
		id   string
		rows []Row
		want int
	}{
		{"E1", RunE1(n), 4},
		{"E2", RunE2(10 * n), 8},
		{"E3", RunE3([]int{2}, []int{4}, n), 2},
		{"E4", RunE4([]int{1}, n), 2},
		{"E5", RunE5([]int{1}, n), 2},
		{"E6", RunE6(n), 4},
		{"E7", RunE7(2, 4), 3},
		{"E8", RunE8(2, n), 2},
		{"E9", RunE9(2, n), 4},
		{"E10", RunE10([]int{10}, n), 2},
		{"E11", RunE11(n), 2},
		{"E12", RunE12(n), 3},
		{"E13", RunE13(2, 10), 4},
	} {
		if len(c.rows) != c.want {
			t.Errorf("%s: %d rows, want %d: %+v", c.id, len(c.rows), c.want, c.rows)
			continue
		}
		for _, r := range c.rows {
			// E7's GC census is a count, not a timing.
			timed := r.Ops > 0 && r.Config != "global, after validity GC"
			if !strings.HasPrefix(r.Experiment, c.id+"-") || r.Config == "" || timed && r.NsPerOp <= 0 {
				t.Errorf("%s: malformed row %+v", c.id, r)
			}
		}
	}
}

func TestMeasureRecordsAllocs(t *testing.T) {
	row := measure("alloc-test", "cfg", 100, func() {
		sink := make([][]byte, 100)
		for i := range sink {
			sink[i] = make([]byte, 1024)
		}
		_ = sink
	})
	if row.AllocsPerOp < 1 {
		t.Fatalf("AllocsPerOp = %v, want >= 1", row.AllocsPerOp)
	}
	if row.BytesPerOp < 1024 {
		t.Fatalf("BytesPerOp = %v, want >= 1024", row.BytesPerOp)
	}
}
