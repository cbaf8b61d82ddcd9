package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/lint"
)

func TestList(t *testing.T) {
	var out, errw bytes.Buffer
	if exit := run([]string{"-list"}, &out, &errw); exit != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", exit, errw.String())
	}
	for _, a := range lint.Suite() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing %s:\n%s", a.Name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errw bytes.Buffer
	if exit := run([]string{"-only", "nonesuch"}, &out, &errw); exit != 2 {
		t.Fatalf("exit = %d, want 2", exit)
	}
	if !strings.Contains(errw.String(), `unknown analyzer "nonesuch"`) {
		t.Errorf("missing diagnostic:\n%s", errw.String())
	}
}

// TestJSONOutput verifies -json emits a well-formed array (empty when
// the analyzed package is clean, as lint's own testdata-free packages
// are expected to be after TestModuleIsClean).
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks packages")
	}
	var out, errw bytes.Buffer
	exit := run([]string{"-json", "../../internal/event"}, &out, &errw)
	if exit != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s%s", exit, out.String(), errw.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 0 {
		t.Errorf("clean package produced findings: %v", findings)
	}
}

// TestModuleIsClean runs the full suite over this repository — the
// same invariant `make lint` enforces, kept inside `go test ./...` so
// a finding (or an unjustified suppression) fails tier-1 directly.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var out, errw bytes.Buffer
	if exit := run(nil, &out, &errw); exit != 0 {
		t.Errorf("reachvet found violations:\n%s%s", out.String(), errw.String())
	}
}
