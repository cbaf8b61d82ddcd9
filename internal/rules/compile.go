package rules

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
)

// Loaded is the result of loading a rule set into an engine.
type Loaded struct {
	Rules      []*eca.Rule
	Composites []*algebra.Composite
	Temporal   []*eca.TemporalHandle
}

// Stop disarms every temporal event source the rule set armed.
func (l *Loaded) Stop() {
	for _, h := range l.Temporal {
		h.Stop()
	}
}

// Load parses src, refuses it on the first diagnostic of the vet pass
// (the checks rulec -vet makes), compiles every rule, defines the
// composites the rules need, arms their temporal event sources, and
// registers the rules with the engine.
func Load(e *eca.Engine, src string) (*Loaded, error) {
	decls, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if diags := Vet("", decls); len(diags) > 0 {
		d := diags[0]
		return nil, fmt.Errorf("rules: line %d: rule %s: %s", d.Line, d.Rule, d.Message)
	}
	out := &Loaded{}
	for _, d := range decls {
		r, comps, temps, err := Compile(e, d)
		if err != nil {
			out.Stop()
			return nil, err
		}
		for _, c := range comps {
			if err := e.DefineComposite(c); err != nil {
				out.Stop()
				return nil, fmt.Errorf("rules: rule %s: %w", d.Name, err)
			}
			out.Composites = append(out.Composites, c)
		}
		for _, spec := range temps {
			h, err := e.ArmTemporal(spec)
			if err != nil {
				out.Stop()
				return nil, fmt.Errorf("rules: rule %s: %w", d.Name, err)
			}
			out.Temporal = append(out.Temporal, h)
		}
		if err := e.AddRule(r); err != nil {
			out.Stop()
			return nil, err
		}
		out.Rules = append(out.Rules, r)
	}
	return out, nil
}

// Compile translates one parsed rule declaration into an eca.Rule,
// the composite declarations it needs, and the temporal specs to arm.
// The rule is not registered; Load does that.
func Compile(e *eca.Engine, d *RuleDecl) (*eca.Rule, []*algebra.Composite, []event.TemporalSpec, error) {
	c := &compiler{decl: d, slotOf: make(map[string]int, len(d.Decls)), prog: &program{name: d.Name}}
	for i, v := range d.Decls {
		if _, dup := c.slotOf[v.Name]; dup {
			return nil, nil, nil, fmt.Errorf("rules: rule %s: variable %q declared twice", d.Name, v.Name)
		}
		c.slotOf[v.Name] = i
		c.prog.vars = append(c.prog.vars, v.Name)
		if v.Named != "" {
			c.prog.roots = append(c.prog.roots, root{slot: i, name: v.Named})
		}
	}

	expr, err := c.compileEvent(d.Event)
	if err != nil {
		return nil, nil, nil, err
	}

	var comps []*algebra.Composite
	eventKey := ""
	if prim, ok := expr.(algebra.Prim); ok && !c.composite {
		eventKey = prim.Key
	} else {
		comp := &algebra.Composite{
			Name:     d.Name + "__event",
			Expr:     expr,
			Policy:   parsePolicy(d.Policy),
			Scope:    parseScope(d.Scope),
			Validity: d.Validity,
		}
		comps = append(comps, comp)
		eventKey = comp.Key()
	}

	r := &eca.Rule{
		Name:       d.Name,
		EventKey:   eventKey,
		Priority:   d.Prio,
		CondMode:   parseMode(d.CondMode),
		ActionMode: parseMode(d.ActionMode),
	}
	if r.ActionMode == 0 {
		r.ActionMode = eca.Detached
	}
	// Supervised-executor attributes: 0 in the language means
	// "disabled", which the engine spells as a negative override.
	r.Timeout = d.Timeout
	if d.RetrySet {
		r.Retries = d.Retry
		if d.Retry <= 0 {
			r.Retries = -1
		}
	}
	if d.BreakerSet {
		r.Breaker = d.Breaker
		if d.Breaker <= 0 {
			r.Breaker = -1
		}
	}
	prog := c.prog
	if d.Cond != nil {
		cond := d.Cond
		r.Cond = func(rc *eca.RuleCtx) (bool, error) {
			var room [slotRoom]slot
			ev, err := bindEnv(rc, prog, room[:])
			if err != nil {
				return false, err
			}
			v, err := ev.eval(cond)
			if err != nil {
				return false, err
			}
			b, ok := v.(bool)
			if !ok {
				return false, fmt.Errorf("rules: rule %s: condition evaluated to %T, want bool", prog.name, v)
			}
			return b, nil
		}
	}
	actions := d.Actions
	r.Action = func(rc *eca.RuleCtx) error {
		var room [slotRoom]slot
		ev, err := bindEnv(rc, prog, room[:])
		if err != nil {
			return err
		}
		for _, s := range actions {
			if err := ev.exec(s); err != nil {
				return err
			}
		}
		return nil
	}
	return r, comps, c.temporal, nil
}

// program is what a compiled rule binds on every firing. Compile gives
// each declared variable a slot; a firing fills the slots from the
// named roots, then from the trigger's constituents, so a variable
// bound twice keeps the later value.
type program struct {
	name     string   // the rule's, for errors
	vars     []string // variable name by slot
	roots    []root
	bindings []binding
}

// root is a variable bound to a named root. Roots are fetched on every
// firing: a root can be re-pointed between firings.
type root struct {
	slot int
	name string
}

// binding fills variables from one primitive constituent of the
// trigger: the occ-th occurrence of key among its flattened parts,
// occ being the number of earlier bindings on the same key.
type binding struct {
	key    string
	occ    int
	recv   int   // slot of the object variable bound to the receiver
	params []int // slots of the scalar variables bound to the arguments
}

type compiler struct {
	decl      *RuleDecl
	slotOf    map[string]int
	prog      *program
	temporal  []event.TemporalSpec
	composite bool
}

// compileEvent lowers an event AST into an algebra expression over
// primitive spec keys, recording variable bindings and temporal specs.
func (c *compiler) compileEvent(ev EventExpr) (algebra.Expr, error) {
	switch x := ev.(type) {
	case MethodEvent:
		recv, ok := c.slotOf[x.Recv]
		if !ok {
			return nil, fmt.Errorf("rules: rule %s: receiver %q not declared", c.decl.Name, x.Recv)
		}
		when := event.Before
		if x.After {
			when = event.After
		}
		key := event.MethodSpec{Class: c.decl.Decls[recv].Class, Method: x.Method, When: when}.Key()
		b := binding{key: key, recv: recv, params: make([]int, len(x.Params))}
		for i, p := range x.Params {
			if b.params[i], ok = c.slotOf[p]; !ok {
				return nil, fmt.Errorf("rules: rule %s: event parameter %q not declared", c.decl.Name, p)
			}
		}
		for _, prev := range c.prog.bindings {
			if prev.key == key {
				b.occ++
			}
		}
		c.prog.bindings = append(c.prog.bindings, b)
		return algebra.Prim{Key: key}, nil
	case StateEvent:
		key := event.StateSpec{Class: x.Class, Attr: x.Attr}.Key()
		return algebra.Prim{Key: key}, nil
	case TxnEvent:
		var phase event.TxnPhase
		switch x.Phase {
		case "bot":
			phase = event.BOT
		case "eot":
			phase = event.EOT
		case "commit":
			phase = event.Commit
		case "abort":
			phase = event.Abort
		}
		return algebra.Prim{Key: event.TxnSpec{Phase: phase}.Key()}, nil
	case TimeEvent:
		var spec event.TemporalSpec
		switch x.Kind {
		case "at":
			spec = event.TemporalSpec{Name: c.decl.Name, Temporal: event.Absolute, At: x.At}
		case "every":
			spec = event.TemporalSpec{Name: c.decl.Name, Temporal: event.Periodic, Period: x.Period}
		case "in":
			spec = event.TemporalSpec{Name: c.decl.Name, Temporal: event.Relative, Delay: x.Period}
		}
		c.temporal = append(c.temporal, spec)
		return algebra.Prim{Key: spec.Key()}, nil
	case SeqEvent:
		c.composite = true
		subs, err := c.compileAll(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Seq{Exprs: subs}, nil
	case AndEvent:
		c.composite = true
		subs, err := c.compileAll(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Conj{Exprs: subs}, nil
	case OrEvent:
		c.composite = true
		subs, err := c.compileAll(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Disj{Exprs: subs}, nil
	case NotEvent:
		c.composite = true
		sub, err := c.compileEvent(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Neg{Of: sub}, nil
	case TimesEvent:
		c.composite = true
		sub, err := c.compileEvent(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.History{Of: sub, Count: x.N}, nil
	case CloseEvent:
		c.composite = true
		sub, err := c.compileEvent(x.Sub)
		if err != nil {
			return nil, err
		}
		return algebra.Closure{Of: sub}, nil
	}
	return nil, fmt.Errorf("rules: rule %s: unsupported event %T", c.decl.Name, ev)
}

func (c *compiler) compileAll(subs []EventExpr) ([]algebra.Expr, error) {
	out := make([]algebra.Expr, len(subs))
	for i, s := range subs {
		e, err := c.compileEvent(s)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// slotRoom is how many variables a firing binds in slots on the stack
// of the compiled condition or action; the shipped rules declare at
// most seven. A rule declaring more gets its slots on the heap.
const slotRoom = 8

// bindEnv builds the evaluation environment for one firing in room,
// the caller's slots: named roots are fetched, the event's receivers
// and parameters are bound from the trigger's constituents. It
// allocates nothing while the rule's variables fit room; a primitive
// trigger is its own only constituent.
func bindEnv(rc *eca.RuleCtx, p *program, room []slot) (env, error) {
	if len(p.vars) > len(room) {
		room = make([]slot, len(p.vars))
	}
	ev := env{ctx: rc.Ctx(), names: p.vars, vals: room[:len(p.vars)]}
	for _, r := range p.roots {
		obj, err := ev.ctx.Root(r.name)
		if err != nil {
			return env{}, fmt.Errorf("rules: rule %s: %w", p.name, err)
		}
		ev.vals[r.slot] = slot{obj, true}
	}
	for _, b := range p.bindings {
		part, _ := nthPart(rc.Trigger, b.key, b.occ)
		if part == nil {
			continue // constituent absent (e.g. disjunction branch)
		}
		if part.OID != 0 {
			obj, err := ev.ctx.Load(oodb.OID(part.OID))
			if err != nil {
				return env{}, fmt.Errorf("rules: rule %s: bind %s: %w", p.name, p.vars[b.recv], err)
			}
			ev.vals[b.recv] = slot{obj, true}
		}
		for i, s := range b.params {
			if i < len(part.Args) {
				ev.vals[s] = slot{part.Args[i], true}
			}
		}
	}
	return ev, nil
}

// nthPart returns the n-th (from 0) primitive constituent of in with
// spec key key, in Instance.Flatten's order. When in holds fewer, it
// returns nil and how many of the n matches are still to be skipped.
func nthPart(in *event.Instance, key string, n int) (*event.Instance, int) {
	if len(in.Parts) == 0 {
		switch {
		case in.SpecKey != key:
			return nil, n
		case n == 0:
			return in, 0
		}
		return nil, n - 1
	}
	for _, p := range in.Parts {
		var part *event.Instance
		if part, n = nthPart(p, key, n); part != nil {
			return part, 0
		}
	}
	return nil, n
}

// Modes resolves the declaration's effective coupling modes, applying
// the engine defaults: an unspecified action mode means detached, an
// unspecified condition mode follows the action.
func (d *RuleDecl) Modes() (cond, action eca.Coupling) {
	action = parseMode(d.ActionMode)
	if action == 0 {
		action = eca.Detached
	}
	cond = parseMode(d.CondMode)
	if cond == 0 {
		cond = action
	}
	return cond, action
}

func parseMode(s string) eca.Coupling {
	switch s {
	case "imm", "immediate":
		return eca.Immediate
	case "deferred":
		return eca.Deferred
	case "detached":
		return eca.Detached
	case "parallel":
		return eca.DetachedParallelCausal
	case "sequential":
		return eca.DetachedSequentialCausal
	case "exclusive":
		return eca.DetachedExclusiveCausal
	}
	return 0
}

func parsePolicy(s string) algebra.Policy {
	switch s {
	case "recent":
		return algebra.Recent
	case "continuous":
		return algebra.Continuous
	case "cumulative":
		return algebra.Cumulative
	default:
		return algebra.Chronicle
	}
}

func parseScope(s string) algebra.Scope {
	if s == "global" {
		return algebra.ScopeGlobal
	}
	return algebra.ScopeTransaction
}
