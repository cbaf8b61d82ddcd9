package rules

import (
	"strings"
	"testing"

	"repro/internal/finding"
)

func vetSrc(t *testing.T, src string) []finding.Finding {
	t.Helper()
	decls, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Vet("test.rules", decls)
}

func wantDiag(t *testing.T, diags []finding.Finding, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("no diagnostic containing %q in %v", substr, diags)
}

func TestVetCleanRule(t *testing.T) {
	diags := vetSrc(t, `
rule Clean {
    decl Account *a, int amount;
    event before a->withdraw(amount);
    cond imm a.balance - amount < 0;
    action imm abort "overdraft";
};`)
	if len(diags) != 0 {
		t.Errorf("clean rule produced diagnostics: %v", diags)
	}
}

func TestVetTable1Temporal(t *testing.T) {
	diags := vetSrc(t, `
rule T {
    event every 1h;
    action imm abort "x";
};`)
	wantDiag(t, diags, "Table 1 rejects immediate action coupling on a purely-temporal event")
}

func TestVetTable1CompositeImmediate(t *testing.T) {
	diags := vetSrc(t, `
rule C {
    decl S *s, int a, int b;
    event seq(after s->read(a), after s->read(b));
    action imm s->alarm();
};`)
	wantDiag(t, diags, "Table 1 rejects immediate action coupling on a composite-1tx event")
}

func TestVetGlobalCompositeDeferred(t *testing.T) {
	// Deferred is admitted for single-transaction composites but not
	// for cross-transaction ones: scope flips the Table 1 column.
	src := `
rule C {
    decl S *s, int a, int b;
    event seq(after s->read(a), after s->read(b));
    %s
    validity 10s;
    action deferred s->alarm();
};`
	if diags := vetSrc(t, strings.Replace(src, "%s\n    ", "", 1)); len(diags) != 0 {
		t.Errorf("transaction-scope deferred composite should vet clean: %v", diags)
	}
	diags := vetSrc(t, strings.Replace(src, "%s", "scope global;", 1))
	wantDiag(t, diags, "Table 1 rejects deferred action coupling on a composite-ntx event")
}

func TestVetGlobalNeedsValidity(t *testing.T) {
	diags := vetSrc(t, `
rule C {
    decl S *s, int a, int b;
    event and(after s->read(a), after s->read(b));
    scope global;
    action detached s->alarm();
};`)
	wantDiag(t, diags, "needs a validity clause")
}

func TestVetUnknownPolicyAndScope(t *testing.T) {
	diags := vetSrc(t, `
rule C {
    decl S *s, int a, int b;
    event or(after s->read(a), after s->read(b));
    policy newest;
    scope session;
    action detached s->alarm();
};`)
	wantDiag(t, diags, `unknown consumption policy "newest"`)
	wantDiag(t, diags, `unknown scope "session"`)
}

func TestVetCompositeAttrsOnPrimitive(t *testing.T) {
	diags := vetSrc(t, `
rule P {
    decl S *s, int a;
    event after s->read(a);
    policy recent;
    action deferred s->alarm();
};`)
	wantDiag(t, diags, "apply only to composite events")
}

func TestVetUndeclaredVariables(t *testing.T) {
	diags := vetSrc(t, `
rule U {
    decl S *s, int a;
    event after s->read(a);
    cond deferred a < threshold;
    action deferred other->alarm(b + 1);
};`)
	wantDiag(t, diags, `undeclared variable "threshold" referenced in condition`)
	wantDiag(t, diags, `undeclared variable "other" referenced in action`)
	wantDiag(t, diags, `undeclared variable "b" referenced in action`)
}

func TestVetDuplicateVariable(t *testing.T) {
	diags := vetSrc(t, `
rule D {
    decl S *s, int a, int a;
    event after s->read(a);
    action deferred s->alarm();
};`)
	wantDiag(t, diags, `variable "a" declared twice`)
}

// TestVetNestedNotTimes drives walkEvent through a deeply nested
// not(times(...)) chain: variables bound (or misspelled) at the
// innermost terminal must still be resolved against the decl list.
func TestVetNestedNotTimes(t *testing.T) {
	diags := vetSrc(t, `
rule N {
    decl S *s, int a;
    event and(after s->read(a), not(times(2, after q->read(b))));
    validity 10s;
    action detached s->alarm();
};`)
	wantDiag(t, diags, `undeclared variable "q" referenced in event`)
	wantDiag(t, diags, `undeclared variable "b" referenced in event`)

	clean := vetSrc(t, `
rule N {
    decl S *s, int a, int b;
    event and(after s->read(a), not(times(2, after s->read(b))));
    validity 10s;
    action detached s->alarm();
};`)
	if len(clean) != 0 {
		t.Errorf("declared vars inside not(times(...)) still diagnosed: %v", clean)
	}
}

// TestVetScalarOnlyInCompositeSub: a scalar declared once and
// referenced only inside a composite sub-event (never in the
// condition or action) counts as referenced — walkEvent must descend
// through closure(seq(...)) to find the binding site.
func TestVetScalarOnlyInCompositeSub(t *testing.T) {
	diags := vetSrc(t, `
rule Deep {
    decl S *s, int hidden;
    event closure(seq(after s->open(), after s->read(hidden)));
    validity 1h;
    action detached s->alarm();
};`)
	if len(diags) != 0 {
		t.Errorf("scalar bound only in a nested sub-event diagnosed: %v", diags)
	}
}

// TestVetDuplicateVarAcrossAndBranches: the same undeclared name
// bound in two and() branches is reported once (the seen-set dedup),
// while a declared variable rebound across branches is legal.
func TestVetDuplicateVarAcrossAndBranches(t *testing.T) {
	diags := vetSrc(t, `
rule Dup {
    decl S *s;
    event and(after s->read(x), after s->write(x));
    validity 10s;
    action detached s->alarm();
};`)
	count := 0
	for _, d := range diags {
		if strings.Contains(d.Message, `undeclared variable "x"`) {
			count++
		}
	}
	if count != 1 {
		t.Errorf(`undeclared "x" reported %d times, want exactly 1: %v`, count, diags)
	}

	clean := vetSrc(t, `
rule Dup {
    decl S *s, int x;
    event and(after s->read(x), after s->write(x));
    validity 10s;
    action detached s->alarm();
};`)
	if len(clean) != 0 {
		t.Errorf("declared var bound in both and() branches diagnosed: %v", clean)
	}
}

func TestVetModeParity(t *testing.T) {
	diags := vetSrc(t, `
rule M {
    decl S *s, int a;
    event after s->read(a);
    cond deferred a < 0;
    action imm s->alarm();
};`)
	wantDiag(t, diags, "condition mode deferred is later than action mode immediate")
}

func TestVetDuplicateNamesAcrossFiles(t *testing.T) {
	src := `
rule Same {
    decl S *s, int a;
    event after s->read(a);
    action deferred s->alarm();
};`
	declsA, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	declsB, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVetter()
	if diags := v.Vet("a.rules", declsA); len(diags) != 0 {
		t.Fatalf("first file should vet clean: %v", diags)
	}
	diags := v.Vet("b.rules", declsB)
	wantDiag(t, diags, "duplicate rule name (first defined at a.rules:2)")
}

// TestVetLineNumbers pins the Line field the parser stamps on each
// declaration — the anchor every diagnostic position depends on.
func TestVetLineNumbers(t *testing.T) {
	decls, err := Parse(`rule A {
    event bot;
    action deferred abort "x";
};

rule B {
    event eot;
    action deferred abort "y";
};`)
	if err != nil {
		t.Fatal(err)
	}
	if decls[0].Line != 1 || decls[1].Line != 6 {
		t.Errorf("lines = %d, %d; want 1, 6", decls[0].Line, decls[1].Line)
	}
}
