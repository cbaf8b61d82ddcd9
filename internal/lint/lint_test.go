package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/finding"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureFindings loads the fixture module under testdata/src and runs
// the full suite over it.
func fixtureFindings(t *testing.T) (string, []finding.Finding) {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrs {
			t.Errorf("fixture %s: type error: %v", p.Path, e)
		}
	}
	return root, Run(pkgs, Suite())
}

// TestSuiteGolden pins the suite's findings on the seeded fixture
// module — one deliberate violation per analyzer, plus the
// suppression pseudo-analyzer's own diagnostics.
func TestSuiteGolden(t *testing.T) {
	root, findings := fixtureFindings(t)
	var buf strings.Builder
	for _, f := range findings {
		if rel, err := filepath.Rel(root, f.File); err == nil {
			f.File = filepath.ToSlash(rel)
		}
		buf.WriteString(f.String() + "\n")
	}
	got := buf.String()
	golden := filepath.Join("testdata", "findings.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEveryAnalyzerFires guards the seeding itself: each analyzer in
// the suite must catch at least one fixture violation, so a regression
// that silences an analyzer fails here rather than vanishing from the
// golden file unnoticed.
func TestEveryAnalyzerFires(t *testing.T) {
	_, findings := fixtureFindings(t)
	fired := make(map[string]int)
	for _, f := range findings {
		fired[f.Analyzer]++
	}
	for _, a := range Suite() {
		if fired[a.Name] == 0 {
			t.Errorf("analyzer %s reported nothing on the seeded fixture", a.Name)
		}
	}
	if fired["suppression"] == 0 {
		t.Errorf("suppression diagnostics missing on the seeded fixture")
	}
}

// TestSuppressionWithJustification verifies a reviewed //lint:allow
// with a reason removes the finding it covers: the fixture's okClock
// sleep must not surface.
func TestSuppressionWithJustification(t *testing.T) {
	_, findings := fixtureFindings(t)
	for _, f := range findings {
		if f.Analyzer == "clockusage" && strings.Contains(f.Message, "time.Sleep") {
			t.Errorf("suppressed finding leaked: %s", f)
		}
	}
}

// TestExemptPackages verifies the ownership carve-outs: internal/obs
// may use time and sync/atomic freely.
func TestExemptPackages(t *testing.T) {
	_, findings := fixtureFindings(t)
	for _, f := range findings {
		if strings.Contains(filepath.ToSlash(f.File), "internal/obs/") {
			t.Errorf("finding in exempt package: %s", f)
		}
	}
}
