// Package algebra implements the REACH event composition algebra:
// sequence, conjunction, disjunction, negation, closure and history
// operators (HiPAC and SAMOS heritage, paper §3.1), the SNOOP
// consumption policies recent/chronicle/continuous/cumulative (§3.4),
// validity intervals and the life-span rules of §3.3.
//
// One Composer is instantiated per composite event and scope — the
// paper's "many small compositors" (§6.3). A composer consumes
// primitive (or nested composite) occurrences via Feed and produces
// completed composite instances; Flush ends its life-span, emitting
// the operators that complete at end-of-interval (closure, negation)
// and discarding semi-composed state.
package algebra

import (
	"fmt"
	"strings"
)

// Expr is a node of a composite event expression.
type Expr interface {
	fmt.Stringer
	// collectKeys adds every primitive spec key in the expression.
	collectKeys(set map[string]bool)
	// build instantiates a detector for one composer under policy p.
	build(p Policy) detector
}

// Prim matches occurrences of a primitive event spec key (or of a
// nested, separately-defined composite delivered to this composer).
type Prim struct {
	Key string
}

// String implements fmt.Stringer.
func (p Prim) String() string { return p.Key }

func (p Prim) collectKeys(set map[string]bool) { set[p.Key] = true }

// Seq matches its sub-events in occurrence order: (E1; E2; ...; En).
// A Neg element acts as a guard: the match is invalid if the negated
// event occurs between its neighbours (SAMOS-style negation within a
// sequence).
type Seq struct {
	Exprs []Expr
}

// String implements fmt.Stringer.
func (s Seq) String() string { return "(" + joinExprs(s.Exprs, "; ") + ")" }

func (s Seq) collectKeys(set map[string]bool) {
	for _, e := range s.Exprs {
		e.collectKeys(set)
	}
}

// Conj matches when all sub-events have occurred, in any order.
type Conj struct {
	Exprs []Expr
}

// String implements fmt.Stringer.
func (c Conj) String() string { return "(" + joinExprs(c.Exprs, " & ") + ")" }

func (c Conj) collectKeys(set map[string]bool) {
	for _, e := range c.Exprs {
		e.collectKeys(set)
	}
}

// Disj matches when any sub-event occurs.
type Disj struct {
	Exprs []Expr
}

// String implements fmt.Stringer.
func (d Disj) String() string { return "(" + joinExprs(d.Exprs, " | ") + ")" }

func (d Disj) collectKeys(set map[string]bool) {
	for _, e := range d.Exprs {
		e.collectKeys(set)
	}
}

// Neg is non-occurrence. Standalone, it completes at the end of the
// composer's life-span if the sub-event never occurred. Inside a Seq
// it is a guard between its neighbours.
type Neg struct {
	Of Expr
}

// String implements fmt.Stringer.
func (n Neg) String() string { return "!" + n.Of.String() }

func (n Neg) collectKeys(set map[string]bool) { n.Of.collectKeys(set) }

// Closure collapses any number of occurrences of the sub-event into
// one composite, signalled at the end of the composer's life-span
// (the HiPAC E* operator).
type Closure struct {
	Of Expr
}

// String implements fmt.Stringer.
func (c Closure) String() string { return c.Of.String() + "*" }

func (c Closure) collectKeys(set map[string]bool) { c.Of.collectKeys(set) }

// History matches when the sub-event has occurred Count times (the
// SAMOS TIMES operator); the composite carries all Count occurrences.
type History struct {
	Of    Expr
	Count int
}

// String implements fmt.Stringer.
func (h History) String() string { return fmt.Sprintf("times(%d, %s)", h.Count, h.Of) }

func (h History) collectKeys(set map[string]bool) { h.Of.collectKeys(set) }

// PrimitiveKeys returns the set of primitive spec keys an expression
// listens to; ECA managers use it to route events to composers.
func PrimitiveKeys(e Expr) []string {
	set := make(map[string]bool)
	e.collectKeys(set)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// Validate rejects malformed expressions (empty operators, History
// with a non-positive count, Neg of Neg).
func Validate(e Expr) error {
	switch x := e.(type) {
	case Prim:
		if x.Key == "" {
			return fmt.Errorf("algebra: empty primitive key")
		}
		return nil
	case Seq:
		if len(x.Exprs) < 2 {
			return fmt.Errorf("algebra: sequence needs at least 2 sub-events")
		}
		nonGuard := 0
		for _, sub := range x.Exprs {
			if _, isNeg := sub.(Neg); !isNeg {
				nonGuard++
			}
			if err := Validate(sub); err != nil {
				return err
			}
		}
		if nonGuard < 2 {
			return fmt.Errorf("algebra: sequence needs at least 2 non-negated sub-events")
		}
		if _, isNeg := x.Exprs[0].(Neg); isNeg {
			return fmt.Errorf("algebra: sequence cannot start with a negation guard")
		}
		if _, isNeg := x.Exprs[len(x.Exprs)-1].(Neg); isNeg {
			return fmt.Errorf("algebra: sequence cannot end with a negation guard")
		}
		return nil
	case Conj:
		if len(x.Exprs) < 2 {
			return fmt.Errorf("algebra: conjunction needs at least 2 sub-events")
		}
		for _, sub := range x.Exprs {
			if err := Validate(sub); err != nil {
				return err
			}
		}
		return nil
	case Disj:
		if len(x.Exprs) < 2 {
			return fmt.Errorf("algebra: disjunction needs at least 2 sub-events")
		}
		for _, sub := range x.Exprs {
			if err := Validate(sub); err != nil {
				return err
			}
		}
		return nil
	case Neg:
		if _, dn := x.Of.(Neg); dn {
			return fmt.Errorf("algebra: double negation")
		}
		return Validate(x.Of)
	case Closure:
		return Validate(x.Of)
	case History:
		if x.Count < 1 {
			return fmt.Errorf("algebra: history count %d < 1", x.Count)
		}
		return Validate(x.Of)
	case nil:
		return fmt.Errorf("algebra: nil expression")
	}
	return fmt.Errorf("algebra: unknown expression type %T", e)
}

func joinExprs(exprs []Expr, sep string) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}
