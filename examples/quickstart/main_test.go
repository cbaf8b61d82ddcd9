package main

import (
	"bytes"
	"os"
	"testing"
)

// TestQuickstartGolden runs the quickstart and compares the output with
// testdata/quickstart.golden. After a deliberate change, regenerate it
// with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/quickstart.golden
func TestQuickstartGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/quickstart.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("output differs from testdata/quickstart.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
