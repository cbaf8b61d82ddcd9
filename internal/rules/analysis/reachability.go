package analysis

import (
	"strings"

	"repro/internal/finding"
	"repro/internal/rules"
)

// reachability computes the fixpoint of fireable rules: an event key
// is raisable if it comes from outside the rule set (any method call
// or attribute update the world admits, every transaction phase,
// every temporal source the engine arms) or is raised by a rule
// already known to be fireable. A rule is fireable when its event
// expression can complete from raisable keys and at least one
// triggering terminal is raisable — a rule whose every terminal sits
// under not() has nothing to initiate it and can never fire.
func (a *Analyzer) reachability(g *Graph, w *World) []finding.Finding {
	raised := make(map[string]bool)
	raisable := func(key string) bool {
		if raised[key] {
			return true
		}
		switch {
		case strings.HasPrefix(key, "txn:"), strings.HasPrefix(key, "time:"):
			// Transaction phases occur for every transaction; temporal
			// sources are armed when the rule loads.
			return true
		case strings.HasPrefix(key, "method:"):
			if w == nil || w.Methods == nil {
				return true // open world: any application call
			}
			name := strings.TrimPrefix(key, "method:")
			if i := strings.LastIndexByte(name, ':'); i >= 0 {
				name = name[:i] // strip :before/:after
			}
			return w.Methods[name]
		case strings.HasPrefix(key, "state:"):
			if w == nil || w.Attrs == nil {
				return true
			}
			return w.Attrs[strings.TrimPrefix(key, "state:")]
		}
		return false
	}

	fireable := make([]bool, len(g.Nodes))
	for changed := true; changed; {
		changed = false
		for i, n := range g.Nodes {
			if fireable[i] || !canFire(n, raisable) {
				continue
			}
			fireable[i] = true
			changed = true
			for _, r := range n.Raises {
				raised[r.Key] = true
			}
		}
	}

	var out []finding.Finding
	for i, n := range g.Nodes {
		if fireable[i] {
			continue
		}
		n.Unreachable = true
		trig := n.triggerKeys()
		if len(trig) == 0 {
			out = append(out, report(n, "reachability", finding.Warning,
				"event has no triggering terminal (every constituent is negated); the rule can never be initiated"))
			continue
		}
		var dead []string
		sev := finding.Warning
		for _, k := range trig {
			if !raisable(k) {
				dead = append(dead, k)
				// Against a closed world a missing method or attribute
				// is a schema error, not merely dead code.
				if w != nil && (strings.HasPrefix(k, "method:") || strings.HasPrefix(k, "state:")) {
					sev = finding.Error
				}
			}
		}
		if w != nil && sev == finding.Error {
			out = append(out, report(n, "reachability", finding.Error,
				"event waits on %s, not registered in the data dictionary and raised by no rule action", strings.Join(dead, ", ")))
			continue
		}
		out = append(out, report(n, "reachability", finding.Warning,
			"no action, method source, or sentry-visible update can raise %s; the rule can never fire", strings.Join(dead, ", ")))
	}
	return out
}

// canFire reports whether the node's event can complete from raisable
// keys with at least one raisable triggering terminal to initiate it.
func canFire(n *Node, raisable func(string) bool) bool {
	initiated := false
	for _, t := range n.Terminals {
		if t.Triggering && raisable(t.Key) {
			initiated = true
			break
		}
	}
	if !initiated {
		return false
	}
	return completable(n.Decl.Event, n.Decl.ClassOf(), n.Decl.Name, raisable)
}

// completable mirrors the composite detectors' completion semantics:
// not() completes by non-occurrence, or() needs any branch, the
// conjunctive operators need every constituent, times/closure need
// their sub-event.
func completable(e rules.EventExpr, classOf map[string]string, ruleName string, raisable func(string) bool) bool {
	switch ev := e.(type) {
	case rules.NotEvent:
		return true
	case rules.OrEvent:
		for _, s := range ev.Sub {
			if completable(s, classOf, ruleName, raisable) {
				return true
			}
		}
		return false
	case rules.SeqEvent:
		return allCompletable(ev.Sub, classOf, ruleName, raisable)
	case rules.AndEvent:
		return allCompletable(ev.Sub, classOf, ruleName, raisable)
	case rules.TimesEvent:
		return completable(ev.Sub, classOf, ruleName, raisable)
	case rules.CloseEvent:
		return completable(ev.Sub, classOf, ruleName, raisable)
	}
	for _, t := range terminals(e, classOf, ruleName, true) {
		if !raisable(t.Key) {
			return false
		}
	}
	return true
}

func allCompletable(subs []rules.EventExpr, classOf map[string]string, ruleName string, raisable func(string) bool) bool {
	for _, s := range subs {
		if !completable(s, classOf, ruleName, raisable) {
			return false
		}
	}
	return true
}
