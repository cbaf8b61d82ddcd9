package main

import (
	"bytes"
	"os"
	"testing"
)

// TestTradingGolden runs the index monitor and compares the output
// with testdata/trading.golden. After a deliberate change, regenerate
// it with
//
//	go run ./examples/trading > examples/trading/testdata/trading.golden
func TestTradingGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trading.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("output differs from testdata/trading.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
