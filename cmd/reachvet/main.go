// reachvet runs the REACH-specific static-analysis suite over the
// module: clockusage, lockdiscipline, rawatomics, couplingtable,
// errsink and nakedgo (lint.Suite, see internal/lint). It prints
// file:line:col diagnostics and exits nonzero when any finding
// survives the lint:allow suppressions.
//
//	reachvet [-only a,b] [-list] [-json] [dir ...]
//
// With no directories it analyzes every package of the module
// containing the working directory. -json emits the findings as a
// JSON array of {file, line, col, analyzer, severity, message}
// objects, the shape rulec -json also emits, for CI and editor
// integration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/finding"
	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reachvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	typeErrs := fs.Bool("typeerrs", false, "also print soft type-checking errors (debugging)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := lint.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(stderr, "reachvet: unknown analyzer %q\n", n)
			return 2
		}
		suite = sel
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "reachvet: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fmt.Fprintf(stderr, "reachvet: %v\n", err)
		return 2
	}
	var pkgs []*lint.Package
	if fs.NArg() == 0 {
		pkgs, err = loader.LoadAll()
	} else {
		for _, dir := range fs.Args() {
			p, perr := loader.LoadDir(dir)
			if perr != nil {
				err = perr
				break
			}
			pkgs = append(pkgs, p)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "reachvet: %v\n", err)
		return 2
	}
	if *typeErrs {
		for _, p := range pkgs {
			for _, e := range p.TypeErrs {
				fmt.Fprintf(stderr, "reachvet: typecheck %s: %v\n", p.Path, e)
			}
		}
	}
	findings := lint.Run(pkgs, suite)
	if *jsonOut {
		if err := finding.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "reachvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "reachvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
