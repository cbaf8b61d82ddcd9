package lint

import (
	"go/ast"
)

// clockFuncs are the time-package entry points that read or block on
// the wall clock. Using them directly makes temporal behavior
// untestable; engine code must go through an injected clock.Clock.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// ClockUsage enforces the determinism guard: no direct wall-clock
// reads outside the packages that own time. internal/clock is the
// abstraction itself, internal/obs timestamps telemetry, and
// internal/bench measures wall time by definition. It also rejects a
// duration taken from a fresh wall read, <clock>.Now().Sub(t): Since
// measures the same duration, on a Real clock from the monotonic clock
// alone.
var ClockUsage = &Analyzer{
	Name: "clockusage",
	Doc:  "wall-clock calls (time.Now, time.Sleep, ...) and x.Now().Sub durations outside internal/clock, internal/obs, internal/bench",
	Run:  runClockUsage,
}

func runClockUsage(p *Pass) {
	if p.InPackage("internal/clock", "internal/obs", "internal/bench") {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isFreshNowSub(p, file, sel) {
				p.Reportf(call.Pos(), "duration from a fresh wall read; use Clock.Since")
				return true
			}
			if !clockFuncs[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || pkgNameOf(p.Pkg, file, id) != "time" {
				return true
			}
			p.Reportf(call.Pos(),
				"time.%s bypasses the injected clock; take a clock.Clock (determinism guard)",
				sel.Sel.Name)
			return true
		})
	}
}

// isFreshNowSub reports whether sel is the Sub of <x>.Now().Sub(...)
// on anything but the time package, whose Now the wall-read check
// already reports.
func isFreshNowSub(p *Pass, file *ast.File, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Sub" {
		return false
	}
	now, ok := sel.X.(*ast.CallExpr)
	if !ok || len(now.Args) != 0 {
		return false
	}
	nowSel, ok := now.Fun.(*ast.SelectorExpr)
	if !ok || nowSel.Sel.Name != "Now" {
		return false
	}
	id, ok := nowSel.X.(*ast.Ident)
	return !ok || pkgNameOf(p.Pkg, file, id) != "time"
}
