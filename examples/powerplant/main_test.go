package main

import (
	"bytes"
	"os"
	"testing"
)

// TestPowerplantGolden runs the scenarios and compares the output with
// testdata/powerplant.golden, the engine line (reach_events_total,
// reach_rules_fired_total and reach_composites_detected_total through
// Engine.Stats) included. After a deliberate change, regenerate it with
//
//	go run ./examples/powerplant > examples/powerplant/testdata/powerplant.golden
func TestPowerplantGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/powerplant.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("output differs from testdata/powerplant.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
