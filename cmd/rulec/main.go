// rulec is the REACH rule-language compiler front end: it parses rule
// definition files, reports syntax errors with line numbers, and
// prints a summary of each rule — the events it triggers on, its
// coupling modes, priorities, and the composite events it would
// define. With -vet it additionally runs the semantic pass, rejecting
// rules the engine's Table 1 admission matrix would refuse at load
// time: invalid coupling/category pairs, cross-transaction composites
// without a validity interval, unknown consumption policies,
// duplicate rule names, and undeclared variable references.
//
// With -analyze it runs the whole-ruleset interaction analysis over
// every file as one set: the triggering graph (actions raising events
// that fire further rules), termination (cycles, classified by
// coupling mode, plus the static cascade-depth bound for acyclic
// sets), confluence (order-dependent equal-priority pairs), and
// reachability (rules whose event can never be raised). Findings can
// be suppressed per rule with a justified comment in the source:
//
//	# lint:allow termination operators bound this loop via the interlock
//
// -json emits vet and analysis findings as one JSON array of
// {file, line, rule, analyzer, severity, message} objects, the shape
// reachvet -json also emits; -dot writes the triggering graph in
// Graphviz dot syntax.
//
//	rulec [-vet] [-analyze] [-json] [-dot out.dot] file.rules [file2.rules ...]
//	echo 'rule R { ... };' | rulec -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	reach "repro"
	"repro/internal/finding"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type ruleFile struct {
	path  string
	src   string
	decls []*reach.RuleDecl
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rulec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vet := fs.Bool("vet", false, "run the semantic pass (Table 1, validity, policies, variables)")
	analyze := fs.Bool("analyze", false, "run whole-ruleset interaction analysis (termination, confluence, reachability)")
	jsonOut := fs.Bool("json", false, "emit vet/analysis findings as a JSON array on stdout")
	dotPath := fs.String("dot", "", "with -analyze, write the triggering graph as Graphviz dot to this file (- for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rulec [-vet] [-analyze] [-json] [-dot out.dot] <file.rules>... (or - for stdin)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	var files []ruleFile
	exit := 0
	for _, path := range fs.Args() {
		var src []byte
		var err error
		if path == "-" {
			src, err = io.ReadAll(stdin)
		} else {
			src, err = os.ReadFile(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "rulec: %v\n", err)
			exit = 1
			continue
		}
		decls, err := reach.ParseRules(string(src))
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			exit = 1
			continue
		}
		files = append(files, ruleFile{path: path, src: string(src), decls: decls})
	}

	var findings []finding.Finding

	if *vet {
		vetter := reach.NewRuleVetter()
		for _, f := range files {
			diags := vetter.Vet(f.path, f.decls)
			findings = append(findings, diags...)
			switch {
			case len(diags) > 0:
				exit = 1
				if !*jsonOut {
					for _, d := range diags {
						fmt.Fprintln(stderr, d)
					}
				}
			case !*jsonOut:
				fmt.Fprintf(stdout, "%s: %d rule(s) OK (vetted)\n", f.path, len(f.decls))
				summarize(stdout, f.decls)
			}
		}
	}

	if *analyze {
		az := reach.NewRuleAnalyzer()
		total := 0
		for _, f := range files {
			az.Add(f.path, f.src, f.decls)
			total += len(f.decls)
		}
		res := az.Run(nil)
		errs, warns := 0, 0
		findings = append(findings, res.Findings...)
		for _, f := range res.Findings {
			if f.Severity == reach.RuleError {
				errs++
				exit = 1
			} else {
				warns++
			}
			if !*jsonOut {
				fmt.Fprintln(stderr, f)
			}
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "analyzed %d file(s), %d rule(s): %d error(s), %d warning(s), %d suppressed\n",
				len(files), total, errs, warns, res.Suppressed)
			if res.DepthBound > 0 {
				fmt.Fprintf(stdout, "static cascade-depth bound: %d\n", res.DepthBound)
			}
		}
		if *dotPath != "" {
			if err := writeDOT(*dotPath, res.Graph, stdout); err != nil {
				fmt.Fprintf(stderr, "rulec: %v\n", err)
				exit = 1
			}
		}
	}

	if !*vet && !*analyze {
		for _, f := range files {
			fmt.Fprintf(stdout, "%s: %d rule(s) OK\n", f.path, len(f.decls))
			summarize(stdout, f.decls)
		}
	}

	if *jsonOut {
		if err := finding.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "rulec: %v\n", err)
			return 1
		}
	}
	return exit
}

func writeDOT(path string, g *reach.RuleGraph, stdout io.Writer) error {
	if path == "-" {
		return g.DOT(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.DOT(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func summarize(stdout io.Writer, decls []*reach.RuleDecl) {
	for _, d := range decls {
		condMode := d.CondMode
		if condMode == "" {
			condMode = d.ActionMode
		}
		if condMode == "" {
			condMode = "detached (default)"
		}
		actionMode := d.ActionMode
		if actionMode == "" {
			actionMode = "detached (default)"
		}
		fmt.Fprintf(stdout, "  rule %-20s prio %-4d event %-40v cond %s / action %s\n",
			d.Name, d.Prio, d.Event, condMode, actionMode)
		if d.Scope != "" || d.Policy != "" || d.Validity != 0 {
			fmt.Fprintf(stdout, "    composite: scope=%s policy=%s validity=%v\n",
				orDefault(d.Scope, "transaction"), orDefault(d.Policy, "chronicle"), d.Validity)
		}
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
