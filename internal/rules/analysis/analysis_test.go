package analysis

import (
	"strings"
	"testing"

	"repro/internal/finding"
	"repro/internal/rules"
)

func parse(t *testing.T, src string) []*rules.RuleDecl {
	t.Helper()
	decls, err := rules.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return decls
}

// pingPong is a two-rule immediate-coupling cycle: PingA's action
// calls drain, which PongB triggers on; PongB's action calls fill,
// which PingA triggers on.
const pingPong = `
rule PingA {
    prio 5;
    decl Tank *t;
    event after t->fill();
    action imm t->drain();
};

rule PongB {
    prio 4;
    decl Tank *t;
    event before t->drain();
    action imm t->fill();
};
`

func TestImmediateCycleIsError(t *testing.T) {
	res := Analyze("ping.rules", pingPong, parse(t, pingPong), nil)
	if !res.HasErrors() {
		t.Fatalf("want termination error, got %v", res.Findings)
	}
	if len(res.Cycles) != 1 {
		t.Fatalf("cycles = %v, want 1", res.Cycles)
	}
	c := res.Cycles[0]
	if c.Detached || c.Guarded || c.Severity != finding.Error {
		t.Errorf("cycle classified %+v, want non-detached error", c)
	}
	if got := c.String(); got != "PingA -> PongB -> PingA" {
		t.Errorf("cycle path = %q", got)
	}
	var hit bool
	for _, f := range res.Findings {
		if f.Analyzer == "termination" && strings.Contains(f.Message, "PingA -> PongB -> PingA") {
			hit = true
			if f.Rule != "PingA" || f.Line == 0 {
				t.Errorf("finding anchored at %s:%d rule %s, want the first cycle member", f.File, f.Line, f.Rule)
			}
		}
	}
	if !hit {
		t.Errorf("no termination finding naming the cycle path: %v", res.Findings)
	}
	if !res.Graph.Node("PingA").InCycle || !res.Graph.Node("PongB").InCycle {
		t.Error("cycle members not marked InCycle")
	}
	if res.DepthBound != 0 {
		t.Errorf("DepthBound = %d on a cyclic set, want 0", res.DepthBound)
	}
}

func TestSuppressedCyclePasses(t *testing.T) {
	src := strings.Replace(pingPong, "rule PingA {",
		"# lint:allow termination operators bound this loop via the plant interlock\nrule PingA {", 1)
	res := Analyze("ping.rules", src, parse(t, src), nil)
	if res.HasErrors() {
		t.Fatalf("suppressed set still has errors: %v", res.Findings)
	}
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
}

func TestUnjustifiedSuppressionIsError(t *testing.T) {
	src := strings.Replace(pingPong, "rule PingA {", "# lint:allow termination\nrule PingA {", 1)
	res := Analyze("ping.rules", src, parse(t, src), nil)
	found := false
	for _, f := range res.Findings {
		if f.Analyzer == "suppression" && f.Severity == finding.Error {
			found = true
		}
	}
	if !found {
		t.Errorf("no suppression error for justification-less lint:allow: %v", res.Findings)
	}
}

func TestStaleSuppressionIsError(t *testing.T) {
	src := `
# lint:allow termination nothing here loops
rule Lone {
    decl Tank *t;
    event after t->fill();
    action imm set t.level = 0;
};
`
	res := Analyze("lone.rules", src, parse(t, src), nil)
	found := false
	for _, f := range res.Findings {
		if f.Analyzer == "suppression" && f.Severity == finding.Error && strings.Contains(f.Message, "stale") {
			found = true
		}
	}
	if !found {
		t.Errorf("no stale-suppression error: %v", res.Findings)
	}
}

func TestDetachedGuardedCycleIsWarning(t *testing.T) {
	src := `
rule Refill {
    decl Tank *t;
    event after t->fill();
    action detached t->fill();
    timeout 5s;
};
`
	res := Analyze("refill.rules", src, parse(t, src), nil)
	if res.HasErrors() {
		t.Fatalf("guarded detached cycle should be a warning: %v", res.Findings)
	}
	if len(res.Cycles) != 1 || !res.Cycles[0].Detached || !res.Cycles[0].Guarded {
		t.Fatalf("cycles = %+v, want one guarded detached cycle", res.Cycles)
	}
}

func TestDetachedUnguardedCycleIsError(t *testing.T) {
	src := `
rule Refill {
    decl Tank *t;
    event after t->fill();
    action detached t->fill();
};
`
	res := Analyze("refill.rules", src, parse(t, src), nil)
	if !res.HasErrors() {
		t.Fatalf("unguarded detached cycle should be an error: %v", res.Findings)
	}
}

func TestDepthBoundOfChain(t *testing.T) {
	src := `
rule C1 {
    prio 3;
    decl Tank *t;
    event after t->a();
    action imm t->b();
};
rule C2 {
    prio 2;
    decl Tank *t;
    event before t->b();
    action imm t->c();
};
rule C3 {
    prio 1;
    decl Tank *t;
    event before t->c();
    action imm set t.x = 1;
};
`
	res := Analyze("chain.rules", src, parse(t, src), nil)
	if res.HasErrors() {
		t.Fatalf("chain should be clean: %v", res.Findings)
	}
	if res.DepthBound != 3 {
		t.Errorf("DepthBound = %d, want 3", res.DepthBound)
	}
}

func TestConfluenceWriteWrite(t *testing.T) {
	src := `
rule W1 {
    prio 2;
    decl Tank *t;
    event update of Tank.level;
    action imm set t.alarm = 1;
};
rule W2 {
    prio 2;
    decl Tank *t;
    event commit;
    action imm set t.alarm = 0;
};
`
	res := Analyze("ww.rules", src, parse(t, src), nil)
	found := false
	for _, f := range res.Findings {
		if f.Analyzer == "confluence" && strings.Contains(f.Message, "Tank.alarm") {
			found = true
		}
	}
	if !found {
		t.Errorf("no confluence finding for equal-priority write-write pair: %v", res.Findings)
	}
	// Distinct priorities order the pair deterministically — no finding.
	fixed := strings.Replace(src, "prio 2;\n    decl Tank *t;\n    event commit", "prio 1;\n    decl Tank *t;\n    event commit", 1)
	res = Analyze("ww.rules", fixed, parse(t, fixed), nil)
	for _, f := range res.Findings {
		if f.Analyzer == "confluence" {
			t.Errorf("unexpected confluence finding after priorities split: %v", f)
		}
	}
}

func TestConfluenceReadWriteNeedsTriggerOverlap(t *testing.T) {
	src := `
rule R1 {
    prio 2;
    decl Tank *t;
    event update of Tank.level;
    cond imm t.alarm > 0;
    action imm t->vent();
};
rule R2 {
    prio 2;
    decl Tank *t;
    event update of Tank.level;
    action imm set t.alarm = 1;
};
`
	res := Analyze("rw.rules", src, parse(t, src), nil)
	found := false
	for _, f := range res.Findings {
		if f.Analyzer == "confluence" && strings.Contains(f.Message, "Tank.alarm") {
			found = true
		}
	}
	if !found {
		t.Errorf("no confluence finding for overlapping-trigger read/write pair: %v", res.Findings)
	}
}

func TestReachabilityNegatedOnly(t *testing.T) {
	src := `
rule NeverInit {
    decl Tank *t;
    event not(after t->fill());
    action imm t->drain();
};
`
	res := Analyze("neg.rules", src, parse(t, src), nil)
	found := false
	for _, f := range res.Findings {
		if f.Analyzer == "reachability" && f.Rule == "NeverInit" {
			found = true
		}
	}
	if !found {
		t.Errorf("no reachability finding for fully negated event: %v", res.Findings)
	}
	if !res.Graph.Node("NeverInit").Unreachable {
		t.Error("node not marked Unreachable")
	}
}

func TestReachabilityClosedWorld(t *testing.T) {
	src := `
rule Ghost {
    decl Tank *t;
    event update of Tank.missing;
    action imm t->drain();
};
`
	w := &World{
		Methods: map[string]bool{"Tank.drain": true, "Tank.fill": true},
		Attrs:   map[string]bool{"Tank.level": true},
	}
	res := Analyze("ghost.rules", src, parse(t, src), nil)
	if res.HasErrors() {
		t.Fatalf("open world should not reject unknown attrs: %v", res.Findings)
	}
	res = Analyze("ghost.rules", src, parse(t, src), w)
	if !res.HasErrors() {
		t.Fatalf("closed world should reject state:Tank.missing: %v", res.Findings)
	}
}

// A rule waiting on an attribute no application code can touch is
// still reachable when another rule's action writes it: the fixpoint
// feeds rule-raised events back into the raisable set.
func TestReachabilityFixpointThroughRuleActions(t *testing.T) {
	src := `
rule Source {
    prio 2;
    decl Tank *t;
    event commit;
    action imm set t.derived = 1;
};
rule Sink {
    prio 1;
    decl Tank *t;
    event update of Tank.derived;
    action imm t->drain();
};
`
	w := &World{
		Methods: map[string]bool{"Tank.drain": true},
		Attrs:   map[string]bool{}, // Tank.derived is rule-maintained only
	}
	res := Analyze("fix.rules", src, parse(t, src), w)
	if res.Graph.Node("Sink").Unreachable {
		t.Errorf("Sink unreachable despite Source raising its trigger: %v", res.Findings)
	}
}

func TestCrossFileEdges(t *testing.T) {
	a := New()
	f1 := `
rule Raiser {
    prio 2;
    decl Tank *t;
    event commit;
    action imm t->fill();
};
`
	f2 := `
rule Listener {
    prio 1;
    decl Tank *t;
    event after t->fill();
    action imm set t.level = 0;
};
`
	a.Add("one.rules", f1, parse(t, f1))
	a.Add("two.rules", f2, parse(t, f2))
	res := a.Run(nil)
	found := false
	for _, e := range res.Graph.Edges {
		if e.From == "Raiser" && e.To == "Listener" && e.Key == "method:Tank.fill:after" {
			found = true
		}
	}
	if !found {
		t.Errorf("no cross-file edge Raiser -> Listener: %v", res.Graph.Edges)
	}
}

func TestAbortRaisesTxnAbort(t *testing.T) {
	src := `
rule Guard {
    prio 2;
    decl Tank *t;
    event update of Tank.level;
    action imm abort "overfull";
};
rule Janitor {
    prio 1;
    decl Tank *t;
    event abort;
    action detached t->drain();
    timeout 1s;
};
`
	res := Analyze("abort.rules", src, parse(t, src), nil)
	found := false
	for _, e := range res.Graph.Edges {
		if e.From == "Guard" && e.To == "Janitor" && e.Key == "txn:abort" {
			found = true
		}
	}
	if !found {
		t.Errorf("abort action did not edge to the txn:abort rule: %v", res.Graph.Edges)
	}
}

func TestFindingsDeterministicOrder(t *testing.T) {
	src := pingPong + `
rule NeverInit {
    decl Tank *t;
    event not(after t->vent());
    action imm t->drain();
};
`
	var first []string
	for round := 0; round < 5; round++ {
		res := Analyze("mix.rules", src, parse(t, src), nil)
		var got []string
		for _, f := range res.Findings {
			got = append(got, f.String())
		}
		if round == 0 {
			first = got
			continue
		}
		if strings.Join(first, "\n") != strings.Join(got, "\n") {
			t.Fatalf("round %d reordered findings:\n%v\nvs\n%v", round, first, got)
		}
	}
}

func TestDOTExport(t *testing.T) {
	res := Analyze("ping.rules", pingPong, parse(t, pingPong), nil)
	var b strings.Builder
	if err := res.Graph.DOT(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{
		"digraph triggering {",
		`"PingA" -> "PongB" [label="method:Tank.drain:before"];`,
		`"PongB" -> "PingA" [label="method:Tank.fill:after"];`,
		"color=red",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}
