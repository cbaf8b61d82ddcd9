package main

import (
	"reflect"
	"testing"
)

func TestUnknownExperiments(t *testing.T) {
	known := []string{"E1", "E2", "E10"}
	cases := []struct {
		want map[string]bool
		bad  []string
	}{
		{map[string]bool{}, nil},
		{map[string]bool{"E1": true, "E10": true}, nil},
		{map[string]bool{"E13": true}, []string{"E13"}},
		{map[string]bool{"E1": true, "EX": true, "E0": true}, []string{"E0", "EX"}},
	}
	for _, c := range cases {
		if got := unknownExperiments(c.want, known); !reflect.DeepEqual(got, c.bad) {
			t.Errorf("unknownExperiments(%v) = %v, want %v", c.want, got, c.bad)
		}
	}
}
