// Package lint is a zero-dependency static-analysis framework for the
// REACH codebase, built on go/ast, go/parser, and go/types only. Each
// Analyzer encodes one project invariant — determinism (clockusage),
// deadlock discipline (lockdiscipline), metrics routing (rawatomics),
// the paper's Table 1 admission matrix (couplingtable), and durability
// error handling (errsink), supervised goroutines (nakedgo) — and
// reports finding.Findings with file:line:col positions. A reviewed
//
//	//lint:allow <analyzer>[,<analyzer>…] <justification>
//
// comment (package finding's grammar) suppresses the named analyzers'
// findings on its own line and on the line below it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/finding"
)

// Analyzer is one named check over a package.
type Analyzer struct {
	// Name identifies the analyzer in reports and suppressions.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects the package and reports findings on the pass.
	Run func(p *Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	findings *[]finding.Finding
}

// Reportf records an error finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Pkg.Fset.Position(pos)
	*p.findings = append(*p.findings, finding.Finding{
		File:     at.Filename,
		Line:     at.Line,
		Col:      at.Column,
		Analyzer: p.Analyzer.Name,
		Severity: finding.Error,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InPackage reports whether the pass's package path ends in one of
// the given module-relative suffixes ("internal/clock", ...).
func (p *Pass) InPackage(suffixes ...string) bool {
	for _, s := range suffixes {
		if p.Pkg.Path == s || strings.HasSuffix(p.Pkg.Path, "/"+s) {
			return true
		}
	}
	return false
}

// Suite returns the full REACH analyzer suite in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		ClockUsage,
		LockDiscipline,
		RawAtomics,
		CouplingTable,
		ErrSink,
		NakedGo,
	}
}

// Run applies the analyzers to the packages and returns surviving
// findings sorted by position, with the packages' lint:allow comments
// applied and malformed or stale ones reported.
func Run(pkgs []*Package, analyzers []*Analyzer) []finding.Finding {
	var all []finding.Finding
	var allows []finding.Allow
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, findings: &all}
			a.Run(pass)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if a, ok := finding.ParseAllow(c.Text); ok {
						at := pkg.Fset.Position(c.Pos())
						a.File, a.Line, a.Col = at.Filename, at.Line, at.Column
						allows = append(allows, a)
					}
				}
			}
		}
	}
	kept, _ := finding.Apply(all, allows, func(a *finding.Allow, f *finding.Finding) bool {
		return f.File == a.File && (f.Line == a.Line || f.Line == a.Line+1)
	})
	return kept
}

// --- shared type/AST helpers used by the analyzers ---

// pkgNameOf resolves an identifier to the import path of the package
// it names, or "" if it is not a package name. Falls back to the
// file's import table when type information is incomplete.
func pkgNameOf(pkg *Package, file *ast.File, id *ast.Ident) string {
	if obj, ok := pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // resolved to something that is not a package
	}
	// Unresolved: match against the file's imports by local name.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// calleeFunc resolves the called function or method of a call
// expression, or nil when resolution is unavailable.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if obj, ok := pkg.Info.Uses[id]; ok {
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// returnsError reports whether any result of the function is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok {
			if named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				return true
			}
		}
	}
	return false
}

// exprString renders a small expression (a mutex receiver, a selector
// chain) for diagnostics; it is not a general printer.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "?"
}
