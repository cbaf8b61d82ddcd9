package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestWorkflowGolden runs the workflow and compares its summary and
// engine lines with testdata/workflow.golden. The lines the detached
// rules print carry transaction IDs that depend on when the workers
// begin their rule transactions, so only the totals are compared.
// After a deliberate change, regenerate the golden with
//
//	go run ./examples/workflow > examples/workflow/testdata/workflow.golden
func TestWorkflowGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/workflow.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := totals(out.String()), totals(string(want)); got != want {
		t.Fatalf("totals differ from testdata/workflow.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}

// totals keeps the summary and engine lines of the workflow's output.
func totals(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "fulfilled:") || strings.HasPrefix(line, "engine:") {
			b.WriteString(line)
		}
	}
	return b.String()
}
