// Package analysis performs whole-ruleset interaction analysis over
// parsed REACH rule declarations. Where rulec -vet checks each rule in
// isolation, this package looks at how rules interact: it derives the
// events every rule's condition and action can raise (method calls →
// before/after method events, set statements → state events, abort →
// the transaction abort event), connects them to the rules those
// events can fire — through the composite operators seq/and/or/times/
// closure, with not() terminals tracked but marked non-triggering —
// and runs three analyses on the resulting triggering graph:
//
//   - termination: cycles in the graph. A cycle whose rules all run
//     inside the triggering transaction (immediate/deferred coupling)
//     recurses unboundedly and is an error; a detached cycle is an
//     unbounded cascade of top-level transactions — an error unless it
//     crosses a timeout or breaker clause, which demotes it to a
//     warning. For acyclic rule sets the analysis also computes the
//     static cascade-depth bound (the longest rule chain) that the
//     engine enforces at run time.
//   - confluence: rule pairs at equal priority in the same coupling
//     phase whose firing order is observable — both write the same
//     Class.attr, or their trigger sets overlap and one writes an
//     attribute the other reads.
//   - reachability: rules whose triggering event can never complete —
//     every terminal sits under not(), or (against a closed world) a
//     constituent is neither a registered method/attribute nor raised
//     by any reachable rule's action.
//
// Every finding is anchored at the rule whose declaration it concerns.
// A reviewed comment in the .rules source in package finding's grammar
// — `# lint:allow <analyzer>[,<analyzer>…] <justification>`, or the
// `//` form — suppresses the named analyzers' findings on the next rule
// declared at or below it.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/finding"
	"repro/internal/rules"
)

// Terminal is one primitive leaf of a rule's event expression.
type Terminal struct {
	// Key is the canonical event spec key (the same keys the engine's
	// ECA managers register under).
	Key string
	// Triggering is false for terminals under not(): their occurrences
	// participate in (by inhibiting) detection but can never initiate
	// the rule, so they contribute no triggering edges.
	Triggering bool
}

// Raised is one event a rule's condition or action can raise.
type Raised struct {
	Key string
	Via string // "action" or "condition"
}

// Node is one rule in the triggering graph.
type Node struct {
	Decl *rules.RuleDecl
	File string
	// Cond and Action are the effective coupling modes.
	Cond, Action eca.Coupling
	// Terminals are the primitive leaves of the triggering event.
	Terminals []Terminal
	// Raises are the events the rule's condition and action can raise.
	Raises []Raised
	// Reads and Writes are the Class.attr sets the rule's expressions
	// touch, for the confluence analysis.
	Reads, Writes []string
	// InCycle marks membership in a termination cycle.
	InCycle bool
	// Unreachable marks rules whose event can never complete.
	Unreachable bool
}

// Name returns the rule name.
func (n *Node) Name() string { return n.Decl.Name }

// triggerKeys returns the keys of the node's triggering terminals.
func (n *Node) triggerKeys() []string {
	var out []string
	for _, t := range n.Terminals {
		if t.Triggering {
			out = append(out, t.Key)
		}
	}
	return out
}

// Edge connects a raising rule to a rule its raised event can fire.
type Edge struct {
	From, To string
	// Key is the event that carries the edge.
	Key string
	// Via says whether the event is raised by From's action or by a
	// method call in its condition.
	Via string
}

// Graph is the whole-ruleset triggering graph.
type Graph struct {
	// Nodes in input order (file order, then declaration order).
	Nodes []*Node
	// Edges sorted by (From, To, Key, Via).
	Edges []Edge

	index map[string]int // rule name -> Nodes index
	succ  map[int][]int  // deduplicated adjacency, sorted
}

// Node returns the graph node for a rule name, or nil.
func (g *Graph) Node(name string) *Node {
	if i, ok := g.index[name]; ok {
		return g.Nodes[i]
	}
	return nil
}

// Cycle is one termination cycle: a closed rule path A → B → … → A
// (Rules holds each rule once; the path re-enters the first).
type Cycle struct {
	Rules []string `json:"rules"`
	// Detached is true when any rule in the cycle runs detached — the
	// cascade spans top-level transactions instead of recursing inside
	// one.
	Detached bool `json:"detached"`
	// Guarded is true when a detached cycle crosses a rule with a
	// timeout or breaker clause, which bounds the cascade at run time.
	Guarded  bool             `json:"guarded"`
	Severity finding.Severity `json:"severity"`
}

// String renders the cycle path.
func (c Cycle) String() string {
	return strings.Join(append(append([]string{}, c.Rules...), c.Rules[0]), " -> ")
}

// World describes the classes the analysis may assume exist. A nil
// World is the open world: any method invocation or attribute update
// could arrive from application code, so only rules whose event is
// structurally un-completable (e.g. entirely negated) are unreachable.
// A closed World — built from a live data dictionary — additionally
// rejects rules waiting on methods or attributes that do not exist.
type World struct {
	// Methods holds "Class.method" for every registered method.
	Methods map[string]bool
	// Attrs holds "Class.attr" for every declared attribute.
	Attrs map[string]bool
}

// Result is the outcome of analyzing a rule set.
type Result struct {
	Graph *Graph
	// Findings that survived suppression, sorted by (file, line, rule).
	Findings []finding.Finding
	// Suppressed counts findings silenced by justified lint:allow
	// comments.
	Suppressed int
	// Cycles found by the termination analysis.
	Cycles []Cycle
	// DepthBound is the static cascade-depth bound — the longest rule
	// chain a single external event can fire — valid (non-zero) only
	// when the graph is acyclic.
	DepthBound int
}

// HasErrors reports whether any surviving finding is an error.
func (r *Result) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == finding.Error {
			return true
		}
	}
	return false
}

// Analyzer accumulates rule files and analyzes them as one set —
// cross-file edges are the analysis's reason to exist.
type Analyzer struct {
	files  []fileSet
	allows []finding.Allow
}

type fileSet struct {
	name  string
	decls []*rules.RuleDecl
}

// New returns an empty Analyzer.
func New() *Analyzer { return &Analyzer{} }

// Add records one parsed rule file. src is the raw source, scanned for
// suppression comments; it may be empty when the source is unavailable
// (no suppressions then).
func (a *Analyzer) Add(name, src string, decls []*rules.RuleDecl) {
	a.files = append(a.files, fileSet{name: name, decls: decls})
	for i, line := range strings.Split(src, "\n") {
		allow, ok := finding.ParseAllow(line)
		if !ok {
			continue
		}
		allow.File, allow.Line = name, i+1
		// The allow covers the nearest rule declared at or below it; a
		// trailing comment covers nothing.
		best := 0
		for _, d := range decls {
			if d.Line >= allow.Line && (best == 0 || d.Line < best) {
				best, allow.Rule = d.Line, d.Name
			}
		}
		a.allows = append(a.allows, allow)
	}
}

// Analyze is the single-file convenience wrapper.
func Analyze(name, src string, decls []*rules.RuleDecl, w *World) *Result {
	a := New()
	a.Add(name, src, decls)
	return a.Run(w)
}

// Run builds the triggering graph over every added file and runs the
// termination, confluence, and reachability analyses against w.
func (a *Analyzer) Run(w *World) *Result {
	g := a.buildGraph()
	res := &Result{Graph: g}
	var raw []finding.Finding
	raw = append(raw, a.termination(g, res)...)
	raw = append(raw, a.confluence(g)...)
	raw = append(raw, a.reachability(g, w)...)
	res.Findings, res.Suppressed = finding.Apply(raw, a.allows, func(al *finding.Allow, f *finding.Finding) bool {
		return f.File == al.File && f.Rule == al.Rule
	})
	return res
}

// buildGraph derives terminals, raised events, and read/write sets for
// every rule and connects raisers to the rules their events can fire.
func (a *Analyzer) buildGraph() *Graph {
	g := &Graph{index: make(map[string]int), succ: make(map[int][]int)}
	for _, fs := range a.files {
		for _, d := range fs.decls {
			n := newNode(fs.name, d)
			if _, dup := g.index[n.Name()]; dup {
				// Duplicate names are a vet error; the analysis keeps
				// the first definition so the graph stays a function
				// of rule names.
				continue
			}
			g.index[n.Name()] = len(g.Nodes)
			g.Nodes = append(g.Nodes, n)
		}
	}
	// Index triggering terminals by key, preserving node order.
	byKey := make(map[string][]int)
	for i, n := range g.Nodes {
		seen := map[string]bool{}
		for _, t := range n.Terminals {
			if !t.Triggering || seen[t.Key] {
				continue
			}
			seen[t.Key] = true
			byKey[t.Key] = append(byKey[t.Key], i)
		}
	}
	for i, n := range g.Nodes {
		edges := map[[2]int]bool{} // dedup (to, raise-index collapse)
		for _, r := range n.Raises {
			for _, j := range byKey[r.Key] {
				g.Edges = append(g.Edges, Edge{From: n.Name(), To: g.Nodes[j].Name(), Key: r.Key, Via: r.Via})
				if !edges[[2]int{i, j}] {
					edges[[2]int{i, j}] = true
					g.succ[i] = append(g.succ[i], j)
				}
			}
		}
		sort.Ints(g.succ[i])
	}
	sort.SliceStable(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Via < b.Via
	})
	return g
}

// newNode derives one rule's graph node from its declaration.
func newNode(file string, d *rules.RuleDecl) *Node {
	cond, action := d.Modes()
	n := &Node{Decl: d, File: file, Cond: cond, Action: action}
	classOf := d.ClassOf()
	n.Terminals = terminals(d.Event, classOf, d.Name, true)

	rw := &rwSets{classOf: classOf}
	if d.Cond != nil {
		rw.walkExpr(d.Cond, "condition")
	}
	for _, s := range d.Actions {
		switch st := s.(type) {
		case rules.CallStmt:
			rw.raiseCall(st.Call, "action")
		case rules.SetStmt:
			if cls, ok := classOf[st.Target.Var]; ok && !scalar(cls) {
				rw.raise(event.StateSpec{Class: cls, Attr: st.Target.Attr}.Key(), "action")
				rw.write(cls + "." + st.Target.Attr)
			}
			rw.walkExpr(st.Value, "action")
		case rules.AbortStmt:
			// Aborting the rule transaction surfaces as the trigger's
			// abort; conservatively, rules on txn:abort may fire.
			rw.raise(event.TxnSpec{Phase: event.Abort}.Key(), "action")
		}
	}
	n.Raises = rw.raises
	n.Reads = sortedSet(rw.reads)
	n.Writes = sortedSet(rw.writes)
	return n
}

// terminals flattens an event expression into its primitive leaves.
// triggering is cleared under not(): non-occurrence terminals cannot
// initiate the rule.
func terminals(e rules.EventExpr, classOf map[string]string, ruleName string, triggering bool) []Terminal {
	switch ev := e.(type) {
	case rules.MethodEvent:
		cls, ok := classOf[ev.Recv]
		if !ok || scalar(cls) {
			return nil // undeclared receiver: vet's finding, not ours
		}
		when := event.Before
		if ev.After {
			when = event.After
		}
		key := event.MethodSpec{Class: cls, Method: ev.Method, When: when}.Key()
		return []Terminal{{Key: key, Triggering: triggering}}
	case rules.StateEvent:
		return []Terminal{{Key: event.StateSpec{Class: ev.Class, Attr: ev.Attr}.Key(), Triggering: triggering}}
	case rules.TxnEvent:
		return []Terminal{{Key: event.TxnSpec{Phase: txnPhase(ev.Phase)}.Key(), Triggering: triggering}}
	case rules.TimeEvent:
		var spec event.TemporalSpec
		switch ev.Kind {
		case "at":
			spec = event.TemporalSpec{Name: ruleName, Temporal: event.Absolute, At: ev.At}
		case "every":
			spec = event.TemporalSpec{Name: ruleName, Temporal: event.Periodic, Period: ev.Period}
		default:
			spec = event.TemporalSpec{Name: ruleName, Temporal: event.Relative, Delay: ev.Period}
		}
		return []Terminal{{Key: spec.Key(), Triggering: triggering}}
	case rules.SeqEvent:
		return terminalsAll(ev.Sub, classOf, ruleName, triggering)
	case rules.AndEvent:
		return terminalsAll(ev.Sub, classOf, ruleName, triggering)
	case rules.OrEvent:
		return terminalsAll(ev.Sub, classOf, ruleName, triggering)
	case rules.NotEvent:
		return terminals(ev.Sub, classOf, ruleName, false)
	case rules.TimesEvent:
		return terminals(ev.Sub, classOf, ruleName, triggering)
	case rules.CloseEvent:
		return terminals(ev.Sub, classOf, ruleName, triggering)
	}
	return nil
}

func terminalsAll(subs []rules.EventExpr, classOf map[string]string, ruleName string, triggering bool) []Terminal {
	var out []Terminal
	for _, s := range subs {
		out = append(out, terminals(s, classOf, ruleName, triggering)...)
	}
	return out
}

func txnPhase(s string) event.TxnPhase {
	switch s {
	case "bot":
		return event.BOT
	case "eot":
		return event.EOT
	case "commit":
		return event.Commit
	default:
		return event.Abort
	}
}

// scalar reports whether a declared "class" is a scalar type binding.
func scalar(cls string) bool {
	switch cls {
	case "int", "float", "string", "bool":
		return true
	}
	return false
}

// rwSets accumulates raised events and attribute read/write sets while
// walking condition and action expressions.
type rwSets struct {
	classOf map[string]string
	raises  []Raised
	reads   map[string]bool
	writes  map[string]bool
}

func (rw *rwSets) raise(key, via string) {
	for _, r := range rw.raises {
		if r.Key == key && r.Via == via {
			return
		}
	}
	rw.raises = append(rw.raises, Raised{Key: key, Via: via})
}

func (rw *rwSets) read(attr string) {
	if rw.reads == nil {
		rw.reads = make(map[string]bool)
	}
	rw.reads[attr] = true
}

func (rw *rwSets) write(attr string) {
	if rw.writes == nil {
		rw.writes = make(map[string]bool)
	}
	rw.writes[attr] = true
}

// raiseCall records the before/after method events of one invocation
// and walks its arguments.
func (rw *rwSets) raiseCall(c rules.CallExpr, via string) {
	if cls, ok := rw.classOf[c.Recv]; ok && !scalar(cls) {
		rw.raise(event.MethodSpec{Class: cls, Method: c.Method, When: event.Before}.Key(), via)
		rw.raise(event.MethodSpec{Class: cls, Method: c.Method, When: event.After}.Key(), via)
	}
	for _, a := range c.Args {
		rw.walkExpr(a, via)
	}
}

func (rw *rwSets) walkExpr(e rules.Expr, via string) {
	switch x := e.(type) {
	case rules.AttrRef:
		if cls, ok := rw.classOf[x.Var]; ok && !scalar(cls) {
			rw.read(cls + "." + x.Attr)
		}
	case rules.CallExpr:
		rw.raiseCall(x, via)
	case rules.BinOp:
		rw.walkExpr(x.L, via)
		rw.walkExpr(x.R, via)
	case rules.UnOp:
		rw.walkExpr(x.X, via)
	}
}

func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// report constructs a finding anchored at a node.
func report(n *Node, analyzer string, sev finding.Severity, format string, args ...any) finding.Finding {
	return finding.Finding{
		File:     n.File,
		Line:     n.Decl.Line,
		Rule:     n.Name(),
		Analyzer: analyzer,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	}
}
