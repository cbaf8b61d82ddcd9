// Package finding is the one diagnostic shape and the one suppression
// grammar of REACH's static checkers: reachvet over Go
// (internal/lint), rulec -vet per rule (rules.Vet) and rulec -analyze
// over a whole rule set (internal/rules/analysis). Every checker
// reports a Finding, prints it with String and encodes it with
// WriteJSON.
//
// A reviewed suppression is a comment whose body, after its // or #
// marker and any blanks, reads lint:allow followed by the analyzers it
// silences and why:
//
//	//lint:allow <analyzer>[,<analyzer>…] <justification>
//	# lint:allow <analyzer>[,<analyzer>…] <justification>
//
// Which findings an allow covers is the checker's scoping rule: a Go
// allow covers its own line and the next one, a .rules allow the next
// rule declaration. Apply does the rest, and reports an allow that
// lacks an analyzer or a justification, or that suppresses nothing, as
// an error of the "suppression" pseudo-analyzer.
package finding

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Severity ranks findings: errors fail the checker's exit code and
// gate rule registration; warnings are advisory.
type Severity string

// Finding severities.
const (
	Error   Severity = "error"
	Warning Severity = "warning"
)

// Finding is one diagnostic. Col is set by the Go checker only, Rule
// by the rule-language checkers only.
type Finding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col,omitempty"`
	Rule     string   `json:"rule,omitempty"`
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
}

// String formats the finding as
// file:line[:col]: [rule R: ][analyzer] severity: message.
func (f Finding) String() string {
	pos := fmt.Sprintf("%s:%d", f.File, f.Line)
	if f.Col > 0 {
		pos += fmt.Sprintf(":%d", f.Col)
	}
	who := ""
	if f.Rule != "" {
		who = "rule " + f.Rule + ": "
	}
	return fmt.Sprintf("%s: %s[%s] %s: %s", pos, who, f.Analyzer, f.Severity, f.Message)
}

// Sort orders findings by file, line, column, rule and analyzer. Equal
// keys keep the order the checker reported them in, so the output
// never depends on map iteration or input interleaving.
func Sort(fs []Finding) {
	slices.SortStableFunc(fs, func(a, b Finding) int {
		return cmp.Or(
			strings.Compare(a.File, b.File),
			cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col),
			strings.Compare(a.Rule, b.Rule),
			strings.Compare(a.Analyzer, b.Analyzer),
		)
	})
}

// WriteJSON encodes the findings as an indented JSON array; no
// findings is [], not null.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}

// Allow is one lint:allow comment. The checker that found it fills in
// its position, and Rule when the allow attaches to a rule
// declaration.
type Allow struct {
	File      string
	Line, Col int
	Rule      string
	// Directive is the comment as written through lint:allow, e.g.
	// "//lint:allow" or "# lint:allow"; verdicts quote it.
	Directive     string
	Analyzers     []string
	Justification string
}

// ParseAllow reads the lint:allow directive of the comment that text
// starts or contains: the body after the first // or # marker, with
// leading blanks skipped, must begin with lint:allow. text is a Go
// comment or a line of .rules source; ok is false when it carries no
// directive.
func ParseAllow(text string) (a Allow, ok bool) {
	at, marker := -1, ""
	for _, m := range []string{"//", "#"} {
		if i := strings.Index(text, m); i >= 0 && (at < 0 || i < at) {
			at, marker = i, m
		}
	}
	if at < 0 {
		return Allow{}, false
	}
	body := strings.TrimLeft(text[at+len(marker):], " \t")
	rest, ok := strings.CutPrefix(body, "lint:allow")
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return Allow{}, false
	}
	a.Directive = text[at : len(text)-len(rest)]
	if fields := strings.Fields(rest); len(fields) > 0 {
		a.Analyzers = strings.Split(fields[0], ",")
		a.Justification = strings.Join(fields[1:], " ")
	}
	return a, true
}

// wellFormed reports whether the allow names an analyzer and gives a
// justification; only a well-formed allow suppresses.
func (a *Allow) wellFormed() bool {
	return len(a.Analyzers) > 0 && a.Justification != ""
}

// Apply drops each finding that a well-formed allow names by analyzer
// and that inScope places under it, then appends one "suppression"
// error per allow that needs an analyzer and a justification, or that
// suppresses nothing. It returns the surviving findings sorted, and
// the number suppressed.
func Apply(fs []Finding, allows []Allow, inScope func(a *Allow, f *Finding) bool) (kept []Finding, suppressed int) {
	used := make([]bool, len(allows))
	for _, f := range fs {
		hit := false
		for i := range allows {
			a := &allows[i]
			if a.wellFormed() && slices.Contains(a.Analyzers, f.Analyzer) && inScope(a, &f) {
				used[i] = true
				hit = true
			}
		}
		if hit {
			suppressed++
		} else {
			kept = append(kept, f)
		}
	}
	for i, a := range allows {
		msg := ""
		switch {
		case !a.wellFormed():
			msg = a.Directive + " needs an analyzer name and a justification"
		case !used[i]:
			msg = a.Directive + " " + strings.Join(a.Analyzers, ",") + " suppresses nothing (stale?)"
		default:
			continue
		}
		kept = append(kept, Finding{
			File: a.File, Line: a.Line, Col: a.Col, Rule: a.Rule,
			Analyzer: "suppression", Severity: Error, Message: msg,
		})
	}
	Sort(kept)
	return kept, suppressed
}
