package algebra

import (
	"fmt"
	"time"

	"repro/internal/event"
)

// Scope says which life-span rule governs a composite event (§3.3).
type Scope int

// Composite event scopes.
const (
	// ScopeTransaction composes only events originating in a single
	// transaction; semi-composed state is discarded at EOT.
	ScopeTransaction Scope = iota + 1
	// ScopeGlobal composes events across transactions; a validity
	// interval is mandatory ("composite events without an explicit or
	// implicit validity interval are illegal").
	ScopeGlobal
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	if s == ScopeTransaction {
		return "transaction"
	}
	return "global"
}

// Composite declares a composite event: a named algebra expression
// with a consumption policy, a scope, and (for global scope) a
// validity interval.
type Composite struct {
	Name     string
	Expr     Expr
	Policy   Policy
	Scope    Scope
	Validity time.Duration
}

// Key returns the spec key composite instances are raised under.
func (c *Composite) Key() string { return event.CompositeSpec{Name: c.Name}.Key() }

// Validate checks the declaration against the paper's rules.
func (c *Composite) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("algebra: composite needs a name")
	}
	if err := Validate(c.Expr); err != nil {
		return fmt.Errorf("algebra: composite %q: %w", c.Name, err)
	}
	switch c.Scope {
	case ScopeTransaction:
		// Life-span is the transaction; an additional validity
		// interval is permitted but not required.
	case ScopeGlobal:
		if c.Validity <= 0 {
			return fmt.Errorf("algebra: composite %q spans transactions but has no validity interval", c.Name)
		}
	default:
		return fmt.Errorf("algebra: composite %q has no scope", c.Name)
	}
	switch c.Policy {
	case Recent, Chronicle, Continuous, Cumulative:
	default:
		return fmt.Errorf("algebra: composite %q has invalid consumption policy", c.Name)
	}
	return nil
}

// Composer is one instantiated composition graph for a composite
// event — one of the paper's "many small compositors" (§6.3). It is
// not safe for concurrent use; the ECA layer runs each composer on
// its own goroutine. A composer can be reused: Flush and Reset return
// it to its initial state without pinning any instance it saw, and a
// steady-state Feed allocates only what it completes.
type Composer struct {
	comp *Composite
	key  string // comp.Key(), the spec key completions are raised under
	root detector
	keys map[string]bool
}

// NewComposer instantiates the composition graph for c.
func NewComposer(c *Composite) (*Composer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	root := c.Expr.build()
	setPolicy(root, c.Policy)
	keys := make(map[string]bool)
	c.Expr.collectKeys(keys)
	return &Composer{comp: c, key: c.Key(), root: root, keys: keys}, nil
}

// Composite returns the declaration this composer detects.
func (cp *Composer) Composite() *Composite { return cp.comp }

// Listens reports whether the composer consumes the given spec key.
func (cp *Composer) Listens(specKey string) bool { return cp.keys[specKey] }

// Keys returns the primitive spec keys the composer listens to.
func (cp *Composer) Keys() []string {
	out := make([]string, 0, len(cp.keys))
	for k := range cp.keys {
		out = append(out, k)
	}
	return out
}

// Feed delivers one occurrence and returns any completed composite
// instances, stamped with the composite's spec key. The returned slice
// belongs to the caller: the composer never writes to it again.
func (cp *Composer) Feed(in *event.Instance) []*event.Instance {
	return cp.finish(cp.root.feed(in), in)
}

// Flush ends the composer's life-span: end-of-interval operators
// complete, everything else is discarded. The returned slice belongs
// to the caller.
func (cp *Composer) Flush(now time.Time) []*event.Instance {
	out := cp.finish(cp.root.flush(now), nil)
	cp.root.reset()
	return out
}

// Reset discards all semi-composed state without completing anything.
func (cp *Composer) Reset() { cp.root.reset() }

// Pending reports the number of buffered semi-composed occurrences.
func (cp *Composer) Pending() int { return cp.root.pending() }

// Expire garbage-collects semi-composed occurrences whose validity
// interval has lapsed, returning how many were dropped.
func (cp *Composer) Expire(now time.Time) int {
	if cp.comp.Validity <= 0 {
		return 0
	}
	return cp.root.expire(now.Add(-cp.comp.Validity))
}

// finish stamps raw completions with the composite identity and the
// originating transaction (single-transaction composites carry it;
// multi-transaction ones carry zero). A Prim or Disj root passes the
// fed occurrence itself through; that instance is shared with the
// histories and every other composer it was fed to, so it is wrapped
// in a fresh composite instead of being renamed. Wrapping also turns a
// primitive node's buffer into a slice the caller owns; every other
// raw result already is one.
func (cp *Composer) finish(raw []*event.Instance, fed *event.Instance) []*event.Instance {
	if len(raw) == 1 && raw[0] == fed {
		raw = compose(raw)
	} else {
		for i, in := range raw {
			if in == fed {
				raw[i] = compose(raw[i : i+1])[0]
			}
		}
	}
	for _, in := range raw {
		in.SpecKey = cp.key
		in.Kind = event.KindComposite
		in.Txn = originTxn(in)
	}
	return raw
}

// originTxn returns the one transaction the instance's constituents
// originate from, or zero when they come from several or none.
func originTxn(in *event.Instance) uint64 {
	var id uint64
	single := in.Leaves(func(p *event.Instance) bool {
		switch {
		case p.Txn == 0 || p.Txn == id:
		case id == 0:
			id = p.Txn
		default:
			return false
		}
		return true
	})
	if !single {
		return 0
	}
	return id
}
