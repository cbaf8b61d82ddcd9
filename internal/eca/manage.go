package eca

import (
	"sort"
	"time"

	"repro/internal/clock"
)

// RuleInfo describes a registered rule for management interfaces
// (the paper's planned GUI for rule definition and management, §7).
type RuleInfo struct {
	Name       string
	EventKey   string
	Priority   int
	CondMode   Coupling
	ActionMode Coupling
	Disabled   bool
	Defined    time.Time
}

// ListRules returns every registered rule, grouped by event key and
// ordered by firing order within each group.
func (e *Engine) ListRules() []RuleInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	managers := make([]*Manager, 0, len(e.managers))
	for _, m := range e.managers {
		managers = append(managers, m)
	}
	sort.Slice(managers, func(i, j int) bool { return managers[i].key < managers[j].key })
	var out []RuleInfo
	for _, m := range managers {
		for _, r := range m.rules {
			out = append(out, RuleInfo{
				Name:       r.Name,
				EventKey:   r.EventKey,
				Priority:   r.Priority,
				CondMode:   r.condMode(),
				ActionMode: r.ActionMode,
				Disabled:   r.Disabled,
				Defined:    r.regTime,
			})
		}
	}
	return out
}

// SetRuleEnabled enables or disables a rule at run time without
// unregistering it. It reports whether the rule was found. Once it
// returns, every raise sees the new state.
func (e *Engine) SetRuleEnabled(eventKey, name string, enabled bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.managers[eventKey]
	if m == nil {
		return false
	}
	found := false
	for _, r := range m.rules {
		if r.Name == name {
			r.Disabled = !enabled
			found = true
		}
	}
	if found {
		e.republishLocked(eventKey)
	}
	return found
}

// StartGC arms a background garbage collector that expires
// semi-composed occurrences whose validity interval lapsed, every
// interval — the "background process" discipline of §6.3. Stop the
// returned timer chain with the handle.
func (e *Engine) StartGC(interval time.Duration) *TemporalHandle {
	h := e.newTemporalHandle()
	h.every(interval, func() { e.GCExpired() })
	return h
}

// Clock exposes the engine's time source.
func (e *Engine) Clock() clock.Clock { return e.clk }
