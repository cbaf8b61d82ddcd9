package rules

import (
	"fmt"

	"repro/internal/eca"
	"repro/internal/finding"
)

// Vetter checks parsed rule declarations for semantic errors the
// parser cannot see: Table 1-invalid coupling/category pairs,
// cross-transaction composites without a validity interval, unknown
// consumption policies and scopes, undeclared variable references,
// and duplicate rule names. Names accumulate across Vet calls so
// duplicates are caught across a multi-file rule set.
type Vetter struct {
	seen map[string]string // rule name -> "file:line" of first definition
}

// NewVetter returns a Vetter with an empty name table.
func NewVetter() *Vetter {
	return &Vetter{seen: make(map[string]string)}
}

// Vet checks decls (as parsed from file) and returns its findings, all
// errors of analyzer "vet", in source order. An empty slice means the
// rules are semantically valid.
func (v *Vetter) Vet(file string, decls []*RuleDecl) []finding.Finding {
	var out []finding.Finding
	for _, d := range decls {
		rv := &ruleVet{file: file, decl: d}
		rv.run(v)
		out = append(out, rv.diags...)
	}
	finding.Sort(out)
	return out
}

// Vet is the single-file convenience wrapper around Vetter.
func Vet(file string, decls []*RuleDecl) []finding.Finding {
	return NewVetter().Vet(file, decls)
}

type ruleVet struct {
	file  string
	decl  *RuleDecl
	diags []finding.Finding
}

func (rv *ruleVet) errf(format string, args ...any) {
	rv.diags = append(rv.diags, finding.Finding{
		File:     rv.file,
		Line:     rv.decl.Line,
		Rule:     rv.decl.Name,
		Analyzer: "vet",
		Severity: finding.Error,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (rv *ruleVet) run(v *Vetter) {
	d := rv.decl
	at := fmt.Sprintf("%s:%d", rv.file, d.Line)
	if prev, dup := v.seen[d.Name]; dup {
		rv.errf("duplicate rule name (first defined at %s)", prev)
	} else {
		v.seen[d.Name] = at
	}

	rv.checkCompositeAttrs()
	rv.checkCoupling()
	rv.checkRobustness()
	rv.checkVars()
}

// checkRobustness verifies the supervised-executor clauses appear
// only on detached-coupled rules: immediate and deferred rules run
// inside the triggering transaction, where the executor's deadline,
// retry, and breaker machinery does not apply.
func (rv *ruleVet) checkRobustness() {
	d := rv.decl
	_, action := d.Modes()
	if action.Detachedness() {
		return
	}
	for _, c := range []struct {
		name string
		set  bool
	}{
		{"timeout", d.Timeout != 0},
		{"retry", d.RetrySet},
		{"breaker", d.BreakerSet},
	} {
		if c.set {
			rv.errf("%s clause applies only to detached-coupled rules (%v rules run inside the triggering transaction)", c.name, action)
		}
	}
}

// isComposite reports whether the event clause is an algebra
// expression (and therefore defines a composite event).
func isComposite(e EventExpr) bool {
	switch e.(type) {
	case MethodEvent, StateEvent, TxnEvent, TimeEvent:
		return false
	}
	return true
}

// category derives the Table 1 column of the rule's triggering event
// from the event AST: primitive database events are single-method,
// simple temporal events purely temporal, and composites split by
// declared scope (transaction-scoped composites draw all constituents
// from one transaction; global-scoped ones cross transactions).
func (rv *ruleVet) category() eca.Category {
	d := rv.decl
	switch d.Event.(type) {
	case MethodEvent, StateEvent, TxnEvent:
		return eca.SingleMethod
	case TimeEvent:
		return eca.PurelyTemporal
	}
	if d.Scope == "global" {
		return eca.CompositeMultiTxn
	}
	return eca.CompositeSingleTxn
}

func (rv *ruleVet) checkCompositeAttrs() {
	d := rv.decl
	switch d.Policy {
	case "", "recent", "chronicle", "continuous", "cumulative":
	default:
		rv.errf("unknown consumption policy %q (want recent, chronicle, continuous, or cumulative)", d.Policy)
	}
	switch d.Scope {
	case "", "transaction", "global":
	default:
		rv.errf("unknown scope %q (want transaction or global)", d.Scope)
	}
	if !isComposite(d.Event) {
		if d.Policy != "" || d.Scope != "" || d.Validity != 0 {
			rv.errf("policy/scope/validity clauses apply only to composite events")
		}
		return
	}
	if d.Scope == "global" && d.Validity == 0 {
		rv.errf("cross-transaction composite event needs a validity clause (semi-composed occurrences would accumulate forever)")
	}
}

func (rv *ruleVet) checkCoupling() {
	d := rv.decl
	cat := rv.category()
	cond, action := d.Modes()
	if !eca.Supported(cat, cond) {
		rv.errf("Table 1 rejects %v condition coupling on a %v event", cond, cat)
	}
	if !eca.Supported(cat, action) {
		rv.errf("Table 1 rejects %v action coupling on a %v event", action, cat)
	}
	if cond.Phase() > action.Phase() {
		rv.errf("condition mode %v is later than action mode %v", cond, action)
	}
	if cond.Detachedness() && !action.Detachedness() {
		rv.errf("detached condition %v with non-detached action %v", cond, action)
	}
}

// checkVars verifies every variable referenced by the event clause,
// the condition, and the actions is declared, and that no variable is
// declared twice.
func (rv *ruleVet) checkVars() {
	d := rv.decl
	declared := make(map[string]bool, len(d.Decls))
	for _, vd := range d.Decls {
		if declared[vd.Name] {
			rv.errf("variable %q declared twice", vd.Name)
		}
		declared[vd.Name] = true
	}
	seen := make(map[string]bool) // report each undeclared name once
	ref := func(name, where string) {
		if name == "" || declared[name] || seen[name] {
			return
		}
		seen[name] = true
		rv.errf("undeclared variable %q referenced in %s", name, where)
	}
	rv.walkEvent(d.Event, ref)
	if d.Cond != nil {
		rv.walkExpr(d.Cond, "condition", ref)
	}
	for _, s := range d.Actions {
		switch st := s.(type) {
		case CallStmt:
			ref(st.Call.Recv, "action")
			for _, a := range st.Call.Args {
				rv.walkExpr(a, "action", ref)
			}
		case SetStmt:
			ref(st.Target.Var, "action")
			rv.walkExpr(st.Value, "action", ref)
		}
	}
}

func (rv *ruleVet) walkEvent(e EventExpr, ref func(name, where string)) {
	switch ev := e.(type) {
	case MethodEvent:
		ref(ev.Recv, "event")
		for _, p := range ev.Params {
			ref(p, "event")
		}
	case SeqEvent:
		for _, s := range ev.Sub {
			rv.walkEvent(s, ref)
		}
	case AndEvent:
		for _, s := range ev.Sub {
			rv.walkEvent(s, ref)
		}
	case OrEvent:
		for _, s := range ev.Sub {
			rv.walkEvent(s, ref)
		}
	case NotEvent:
		rv.walkEvent(ev.Sub, ref)
	case TimesEvent:
		rv.walkEvent(ev.Sub, ref)
	case CloseEvent:
		rv.walkEvent(ev.Sub, ref)
	}
}

func (rv *ruleVet) walkExpr(e Expr, where string, ref func(name, where string)) {
	switch x := e.(type) {
	case VarRef:
		ref(x.Name, where)
	case AttrRef:
		ref(x.Var, where)
	case CallExpr:
		ref(x.Recv, where)
		for _, a := range x.Args {
			rv.walkExpr(a, where, ref)
		}
	case BinOp:
		rv.walkExpr(x.L, where, ref)
		rv.walkExpr(x.R, where, ref)
	case UnOp:
		rv.walkExpr(x.X, where, ref)
	}
}
