// Package layered reproduces the architecture the REACH group tried
// first and abandoned (paper §4): active capabilities layered on top
// of a closed commercial OODBMS.
//
// ClosedOODB is the stand-in for O2/ObjectStore: a facade over our own
// database that withholds exactly what the paper says the closed
// systems withheld — no method trapping (no sentries), no state-change
// detection, flat transactions only, no access to transaction-manager
// internals (no commit/abort hooks, no subtransactions, no commit
// dependencies).
//
// Layer is the active layer built on top. It can only:
//
//   - trap method calls when the application routes them through the
//     layer's wrapper (the "parallel class hierarchy of active
//     classes" that must be maintained by the application programmer);
//   - detect state changes by polling snapshots of registered objects;
//   - run rules immediately, in the same flat transaction (a rule
//     failure leaves partial effects unless the whole transaction is
//     thrown away);
//   - approximate deferred coupling by requiring the application to
//     call AtCommit manually before committing.
//
// Events announced directly to the layer ("forcing applications to
// announce the events") are also supported. The benchmark suite uses
// this package as the baseline for the layered-vs-integrated
// comparison (E2).
package layered

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// ClosedOODB is the closed commercial system: no sentries, no nested
// transactions, no transaction-manager access.
type ClosedOODB struct {
	db *oodb.DB
}

// NewClosed opens a closed database over opts. Any sink the caller
// might set on the inner database is ignored — classes behave as
// unmonitored because a closed system gives no trapping points.
func NewClosed(opts oodb.Options) (*ClosedOODB, error) {
	db, err := oodb.Open(opts)
	if err != nil {
		return nil, err
	}
	return &ClosedOODB{db: db}, nil
}

// Dictionary exposes class registration (schema definition is, of
// course, available even in closed systems).
func (c *ClosedOODB) Dictionary() *oodb.Dictionary { return c.db.Dictionary() }

// FlatTxn is the only transaction shape the closed system offers.
type FlatTxn struct {
	t *txn.Txn
}

// Begin starts a flat transaction.
func (c *ClosedOODB) Begin() *FlatTxn { return &FlatTxn{t: c.db.Begin()} }

// Commit commits the flat transaction.
func (ft *FlatTxn) Commit() error { return ft.t.Commit() }

// Abort rolls the flat transaction back.
func (ft *FlatTxn) Abort() error { return ft.t.Abort() }

// NewObject, Get, Set, Invoke, Root, SetRoot: the ordinary
// closed-system data interface. None of them raises events.

// NewObject creates an object.
func (c *ClosedOODB) NewObject(ft *FlatTxn, class string) (*oodb.Object, error) {
	return c.db.NewObject(ft.t, class)
}

// Get reads an attribute.
func (c *ClosedOODB) Get(ft *FlatTxn, obj *oodb.Object, attr string) (any, error) {
	return c.db.Get(ft.t, obj, attr)
}

// Set writes an attribute. The write is invisible to the active
// layer: value changes go through low-level system functions the
// layer cannot modify (§4).
func (c *ClosedOODB) Set(ft *FlatTxn, obj *oodb.Object, attr string, v any) error {
	return c.db.Set(ft.t, obj, attr, v)
}

// Invoke calls a method directly on the closed system — bypassing any
// active layer wrapper, which is precisely the hazard of the layered
// architecture.
func (c *ClosedOODB) Invoke(ft *FlatTxn, obj *oodb.Object, method string, args ...any) (any, error) {
	return c.db.Invoke(ft.t, obj, method, args...)
}

// SetRoot names an object.
func (c *ClosedOODB) SetRoot(ft *FlatTxn, name string, obj *oodb.Object) error {
	return c.db.SetRoot(ft.t, name, obj)
}

// Root fetches a named object.
func (c *ClosedOODB) Root(ft *FlatTxn, name string) (*oodb.Object, error) {
	return c.db.Root(ft.t, name)
}

// Close closes the underlying database.
func (c *ClosedOODB) Close() error { return c.db.Close() }

// Rule is an active-layer rule: condition and action run immediately,
// inside the triggering flat transaction.
type Rule struct {
	Name     string
	EventKey string
	Cond     func(rc *RuleCtx) (bool, error)
	Action   func(rc *RuleCtx) error
}

// RuleCtx is passed to layer rules.
type RuleCtx struct {
	Layer   *Layer
	Txn     *FlatTxn
	Trigger *event.Instance
}

// Layer is the active layer.
type Layer struct {
	closed *ClosedOODB

	mu       sync.Mutex
	rules    map[string][]*Rule
	tracked  map[*oodb.Object][]any // polling snapshots
	deferred map[*FlatTxn][]func() error

	// Announced counts events the application had to announce itself.
	Announced uint64
	// PollReads counts the attribute reads polling sweeps cost.
	PollReads uint64
}

// NewLayer builds an active layer over the closed system.
func NewLayer(closed *ClosedOODB) *Layer {
	return &Layer{
		closed:   closed,
		rules:    make(map[string][]*Rule),
		tracked:  make(map[*oodb.Object][]any),
		deferred: make(map[*FlatTxn][]func() error),
	}
}

// Closed returns the underlying closed system.
func (l *Layer) Closed() *ClosedOODB { return l.closed }

// AddRule registers a rule. Only immediate execution exists: without
// nested transactions only serial execution of triggered rules is
// possible, and without commit hooks deferred coupling cannot be
// implemented faithfully (§4).
func (l *Layer) AddRule(r *Rule) error {
	if r.Name == "" || r.EventKey == "" || r.Action == nil {
		return errors.New("layered: rule needs name, event and action")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rules[r.EventKey] = append(l.rules[r.EventKey], r)
	return nil
}

// Invoke is the wrapper-class path: the application must remember to
// call the wrapper instead of the closed system for events to fire.
func (l *Layer) Invoke(ft *FlatTxn, obj *oodb.Object, method string, args ...any) (any, error) {
	before := event.MethodSpec{Class: obj.Class().Name, Method: method, When: event.Before}.Key()
	if err := l.fire(ft, &event.Instance{
		SpecKey: before, Kind: event.KindMethod,
		OID: uint64(obj.OID()), Class: obj.Class().Name, Method: method, Args: args,
	}); err != nil {
		return nil, err
	}
	res, err := l.closed.Invoke(ft, obj, method, args...)
	if err != nil {
		return nil, err
	}
	after := event.MethodSpec{Class: obj.Class().Name, Method: method, When: event.After}.Key()
	if err := l.fire(ft, &event.Instance{
		SpecKey: after, Kind: event.KindMethod,
		OID: uint64(obj.OID()), Class: obj.Class().Name, Method: method, Args: args, Result: res,
	}); err != nil {
		return res, err
	}
	return res, nil
}

// Announce delivers an event the application detected itself — the
// alternative §4 rejects because it "forces applications to announce
// the events".
func (l *Layer) Announce(ft *FlatTxn, in *event.Instance) error {
	l.mu.Lock()
	l.Announced++
	l.mu.Unlock()
	return l.fire(ft, in)
}

// Track registers an object for state-change polling.
func (l *Layer) Track(ft *FlatTxn, obj *oodb.Object) error {
	snap := make([]any, 0, len(obj.Class().Attrs()))
	for _, a := range obj.Class().Attrs() {
		v, err := l.closed.Get(ft, obj, a.Name)
		if err != nil {
			return err
		}
		snap = append(snap, v)
	}
	l.mu.Lock()
	l.tracked[obj] = snap
	l.mu.Unlock()
	return nil
}

// Poll sweeps every tracked object, diffing attribute values against
// the last snapshot and firing state-change rules for differences.
// This is the only way the layer can see value changes, and its cost
// is proportional to tracked-objects × attributes per sweep, whether
// or not anything changed.
func (l *Layer) Poll(ft *FlatTxn) error {
	l.mu.Lock()
	objs := make([]*oodb.Object, 0, len(l.tracked))
	for obj := range l.tracked {
		objs = append(objs, obj)
	}
	l.mu.Unlock()
	for _, obj := range objs {
		attrs := obj.Class().Attrs()
		fresh := make([]any, len(attrs))
		for i, a := range attrs {
			v, err := l.closed.Get(ft, obj, a.Name)
			if err != nil {
				return err
			}
			fresh[i] = v
			l.mu.Lock()
			l.PollReads++
			l.mu.Unlock()
		}
		l.mu.Lock()
		old := l.tracked[obj]
		l.tracked[obj] = fresh
		l.mu.Unlock()
		for i, a := range attrs {
			if i < len(old) && old[i] != fresh[i] {
				key := event.StateSpec{Class: obj.Class().Name, Attr: a.Name}.Key()
				if err := l.fire(ft, &event.Instance{
					SpecKey: key, Kind: event.KindState,
					OID: uint64(obj.OID()), Class: obj.Class().Name,
					Args: []any{old[i], fresh[i]},
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AtCommit registers work to run when the application calls
// RunDeferred — the manual approximation of deferred coupling. If the
// application forgets to call RunDeferred before Commit, the rules
// silently never run; nothing in the closed system can enforce it.
func (l *Layer) AtCommit(ft *FlatTxn, fn func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.deferred[ft] = append(l.deferred[ft], fn)
}

// RunDeferred runs the work registered with AtCommit. The application
// must call it itself, immediately before Commit.
func (l *Layer) RunDeferred(ft *FlatTxn) error {
	l.mu.Lock()
	fns := l.deferred[ft]
	delete(l.deferred, ft)
	l.mu.Unlock()
	for _, fn := range fns {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// fire runs matching rules serially, in the triggering flat
// transaction. There is no subtransaction to contain a rule failure:
// an error surfaces to the caller with any partial rule effects
// already applied.
func (l *Layer) fire(ft *FlatTxn, in *event.Instance) error {
	l.mu.Lock()
	matching := append([]*Rule(nil), l.rules[in.SpecKey]...)
	l.mu.Unlock()
	for _, r := range matching {
		rc := &RuleCtx{Layer: l, Txn: ft, Trigger: in}
		if r.Cond != nil {
			ok, err := r.Cond(rc)
			if err != nil {
				return fmt.Errorf("layered: rule %s condition: %w", r.Name, err)
			}
			if !ok {
				continue
			}
		}
		if err := r.Action(rc); err != nil {
			return fmt.Errorf("layered: rule %s action: %w", r.Name, err)
		}
	}
	return nil
}
