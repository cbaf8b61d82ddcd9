package finding_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/finding"
	"repro/internal/lint"
	"repro/internal/rules"
	"repro/internal/rules/analysis"
)

// pingPong is a two-rule immediate cycle: the analysis reports one
// termination error, anchored at PingA.
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

// Verdicts an allow can get from either checker.
const (
	suppressed = "suppressed" // the finding is gone, nothing is reported
	malformed  = "needs an analyzer name and a justification"
	stale      = "suppresses nothing"
)

// TestAllowGrammar pushes each form of the lint:allow grammar through
// both checkers that read it: reachvet's, as lint.Run over the lint
// fixture module with the comment above a time.Sleep (a clockusage
// finding), and rulec -analyze's, as analysis.Analyze with the comment
// above the first rule of an immediate cycle (a termination finding).
// An empty goComment marks a form Go has no comment for.
func TestAllowGrammar(t *testing.T) {
	rows := []struct {
		name                  string
		goComment, rulesAllow string
		want                  string
	}{
		{"comma list",
			"//lint:allow errsink,clockusage the fixture sleeps on purpose",
			"# lint:allow confluence,termination the interlock bounds this loop", suppressed},
		{"//lint:allow",
			"//lint:allow clockusage the fixture sleeps on purpose",
			"//lint:allow termination the interlock bounds this loop", suppressed},
		{"// lint:allow",
			"// lint:allow clockusage the fixture sleeps on purpose",
			"// lint:allow termination the interlock bounds this loop", suppressed},
		{"# lint:allow",
			"",
			"# lint:allow termination the interlock bounds this loop", suppressed},
		{"missing analyzer", "//lint:allow", "# lint:allow", malformed},
		{"missing justification", "//lint:allow clockusage", "# lint:allow termination", malformed},
		{"stale",
			"//lint:allow errsink nothing is discarded here",
			"# lint:allow confluence no other rule shares this priority", stale},
	}

	root := fixtureCopy(t)
	for i, r := range rows {
		if r.goComment == "" {
			continue
		}
		src := fmt.Sprintf("package app\n\nimport \"time\"\n\nfunc grammar%d() {\n\t%s\n\ttime.Sleep(time.Millisecond)\n}\n", i, r.goComment)
		if err := os.WriteFile(filepath.Join(root, "app", fmt.Sprintf("grammar%d.go", i)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	goFindings := lint.Run(pkgs, lint.Suite())

	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.goComment != "" {
				var got []finding.Finding
				for _, f := range goFindings {
					if filepath.Base(f.File) == fmt.Sprintf("grammar%d.go", i) {
						got = append(got, f)
					}
				}
				check(t, "go", got, "clockusage", r.want)
			}

			src := strings.Replace(pingPong, "rule PingA {", r.rulesAllow+"\nrule PingA {", 1)
			decls, err := rules.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			res := analysis.Analyze("grammar.rules", src, decls, nil)
			check(t, "rules", res.Findings, "termination", r.want)
			if wantSuppressed := r.want == suppressed; (res.Suppressed == 1) != wantSuppressed {
				t.Errorf("rules: Suppressed = %d, want suppressed %v", res.Suppressed, wantSuppressed)
			}
		})
	}
}

// check asserts a verdict: a suppressed finding leaves nothing behind;
// otherwise the analyzer's finding stays beside one suppression error
// carrying the verdict.
func check(t *testing.T, side string, got []finding.Finding, analyzer, want string) {
	t.Helper()
	if want == suppressed {
		if len(got) != 0 {
			t.Errorf("%s: want the finding suppressed, got %v", side, got)
		}
		return
	}
	kept := slices.ContainsFunc(got, func(f finding.Finding) bool { return f.Analyzer == analyzer })
	verdict := slices.ContainsFunc(got, func(f finding.Finding) bool {
		return f.Analyzer == "suppression" && f.Severity == finding.Error && strings.Contains(f.Message, want)
	})
	if !kept || !verdict || len(got) != 2 {
		t.Errorf("%s: want the %s finding and a suppression error %q, got %v", side, analyzer, want, got)
	}
}

// fixtureCopy copies the lint fixture module into a temporary
// directory, so rows can add files to it.
func fixtureCopy(t *testing.T) string {
	t.Helper()
	from := filepath.Join("..", "lint", "testdata", "src")
	root := t.TempDir()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(root, strings.TrimPrefix(path, from))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}
