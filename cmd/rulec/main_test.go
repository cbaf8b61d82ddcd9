package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runRulec drives the compiler exactly as main does, capturing both
// streams and the exit code.
func runRulec(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var out, errw bytes.Buffer
	exit = run(args, strings.NewReader(""), &out, &errw)
	return out.String(), errw.String(), exit
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
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
		t.Errorf("output diverges from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

func TestValidRules(t *testing.T) {
	stdout, stderr, exit := runRulec(t, "-vet", filepath.Join("testdata", "valid.rules"))
	if exit != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", exit, stderr)
	}
	if stderr != "" {
		t.Errorf("unexpected stderr:\n%s", stderr)
	}
	checkGolden(t, "valid.golden", stdout)
}

func TestSyntaxError(t *testing.T) {
	stdout, stderr, exit := runRulec(t, filepath.Join("testdata", "syntax_error.rules"))
	if exit != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", exit, stdout)
	}
	if !strings.Contains(stderr, "line 2") {
		t.Errorf("syntax error lost its line number:\n%s", stderr)
	}
	checkGolden(t, "syntax_error.golden", stderr)
}

// TestVetRejectsTable1 seeds one rule per semantic check: Table 1
// violations on temporal and composite events, a cross-transaction
// composite without validity, an unknown consumption policy, an
// undeclared variable, and a duplicate rule name.
func TestVetRejectsTable1(t *testing.T) {
	path := filepath.Join("testdata", "table1_invalid.rules")
	stdout, stderr, exit := runRulec(t, "-vet", path)
	if exit != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", exit, stdout)
	}
	for _, want := range []string{
		"Table 1 rejects immediate condition coupling on a purely-temporal event",
		"Table 1 rejects immediate condition coupling on a composite-1tx event",
		"needs a validity clause",
		`unknown consumption policy "newest"`,
		`undeclared variable "threshold"`,
		`undeclared variable "other"`,
		"duplicate rule name",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("vet output missing %q", want)
		}
	}
	checkGolden(t, "table1_invalid.golden", stderr)
}

// TestVetPassesWithoutFlag confirms -vet is opt-in: the same
// semantically invalid file parses clean without it.
func TestVetPassesWithoutFlag(t *testing.T) {
	_, stderr, exit := runRulec(t, filepath.Join("testdata", "table1_invalid.rules"))
	if exit != 0 {
		t.Fatalf("exit = %d, want 0 (syntax only); stderr:\n%s", exit, stderr)
	}
}

// TestAnalyzeRejectsImmediateCycle drives the acceptance fixture: a
// seeded immediate-coupling cycle exits non-zero with the cycle path
// named rule-by-rule.
func TestAnalyzeRejectsImmediateCycle(t *testing.T) {
	stdout, stderr, exit := runRulec(t, "-analyze", filepath.Join("testdata", "cycle_imm.rules"))
	if exit != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", exit, stdout)
	}
	if !strings.Contains(stderr, "PingA -> PongB -> PingA") {
		t.Errorf("cycle path not named rule-by-rule:\n%s", stderr)
	}
	checkGolden(t, "cycle_imm.golden", stderr)
}

// TestAnalyzeSuppressedCyclePasses: the same set is accepted once a
// justified lint:allow comment covers the cycle.
func TestAnalyzeSuppressedCyclePasses(t *testing.T) {
	stdout, stderr, exit := runRulec(t, "-analyze", filepath.Join("testdata", "cycle_suppressed.rules"))
	if exit != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", exit, stderr)
	}
	if !strings.Contains(stdout, "1 suppressed") {
		t.Errorf("suppression not reported:\n%s", stdout)
	}
	checkGolden(t, "cycle_suppressed.golden", stdout)
}

// TestAnalyzeJSON checks the machine-readable findings shape: file,
// line, rule, analyzer, severity, message.
func TestAnalyzeJSON(t *testing.T) {
	stdout, _, exit := runRulec(t, "-analyze", "-json", filepath.Join("testdata", "cycle_imm.rules"))
	if exit != 1 {
		t.Fatalf("exit = %d, want 1", exit)
	}
	var findings []map[string]any
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(findings) == 0 {
		t.Fatal("no findings in JSON output")
	}
	f := findings[0]
	for _, key := range []string{"file", "line", "analyzer", "severity", "message"} {
		if _, ok := f[key]; !ok {
			t.Errorf("finding missing %q: %v", key, f)
		}
	}
	if f["analyzer"] != "termination" || f["severity"] != "error" {
		t.Errorf("finding = %v, want termination error", f)
	}
}

// TestVetJSON: rulec -vet -json emits vet diagnostics in the same
// machine-readable shape.
func TestVetJSON(t *testing.T) {
	stdout, _, exit := runRulec(t, "-vet", "-json", filepath.Join("testdata", "table1_invalid.rules"))
	if exit != 1 {
		t.Fatalf("exit = %d, want 1", exit)
	}
	var findings []map[string]any
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(findings) == 0 {
		t.Fatal("no findings in JSON output")
	}
	for _, f := range findings {
		if f["analyzer"] != "vet" {
			t.Errorf("analyzer = %v, want vet", f["analyzer"])
		}
	}
	// A clean file emits an empty array, not null.
	stdout, _, exit = runRulec(t, "-vet", "-json", filepath.Join("testdata", "valid.rules"))
	if exit != 0 {
		t.Fatalf("clean vet exit = %d, want 0", exit)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}

// TestAnalyzeDOT exports the triggering graph to stdout.
func TestAnalyzeDOT(t *testing.T) {
	stdout, _, exit := runRulec(t, "-analyze", "-dot", "-", filepath.Join("testdata", "cycle_imm.rules"))
	if exit != 1 {
		t.Fatalf("exit = %d, want 1", exit)
	}
	for _, want := range []string{
		"digraph triggering {",
		`"PingA" -> "PongB"`,
		`"PongB" -> "PingA"`,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("DOT output missing %q:\n%s", want, stdout)
		}
	}
}

// TestAnalyzeExamplesClean keeps the shipped example rule sets free of
// unsuppressed analysis errors — the same gate make analyze runs in CI.
func TestAnalyzeExamplesClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "rules", "*.rules"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example rule files found: %v", err)
	}
	args := append([]string{"-analyze"}, paths...)
	stdout, stderr, exit := runRulec(t, args...)
	if exit != 0 {
		t.Fatalf("examples not analysis-clean: exit %d\n%s%s", exit, stdout, stderr)
	}
}

func TestUsage(t *testing.T) {
	_, stderr, exit := runRulec(t)
	if exit != 2 {
		t.Fatalf("exit = %d, want 2", exit)
	}
	if !strings.Contains(stderr, "usage: rulec") {
		t.Errorf("missing usage text:\n%s", stderr)
	}
}
