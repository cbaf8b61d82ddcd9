package oodb

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/txn"
)

// The undo differential: random scripts of Set, NewObject, Persist,
// SetRoot and Delete run in a top-level transaction and up to three
// subtransactions, either one child at a time between the parent's own
// operations or as concurrent siblings, and every transaction commits
// or aborts in a random order. After every abort, and after the top's
// commit, the database must show what replaying only the surviving
// operations — those of transactions no ancestor of which aborted — in
// execution order gives. The replay is independent of the undo log, so
// a record lost, run twice or run out of LIFO order shows as a
// difference; the object both the parent and a child write makes the
// order visible.

type undoOp struct {
	node int // who ran it: 0 the top, 1.. the children
	kind byte
	obj  *Object
	attr int
	val  int64
	name string
}

type undoState struct {
	values     map[*Object][2]int64
	persistent map[*Object]bool
	deleted    map[*Object]bool
	extent     map[OID]bool
	roots      map[string]OID
}

func (s undoState) clone() undoState {
	return undoState{maps.Clone(s.values), maps.Clone(s.persistent), maps.Clone(s.deleted),
		maps.Clone(s.extent), maps.Clone(s.roots)}
}

func (s undoState) apply(op undoOp) {
	switch op.kind {
	case 's':
		v := s.values[op.obj]
		v[op.attr] = op.val
		s.values[op.obj] = v
	case 'n':
		s.values[op.obj] = [2]int64{}
		s.extent[op.obj.oid] = true
	case 'p':
		s.persistent[op.obj] = true
	case 'r':
		s.persistent[op.obj] = true
		s.roots[op.name] = op.obj.oid
	case 'd':
		s.deleted[op.obj] = true
	}
}

type undoScript struct {
	t      *testing.T
	seed   int64
	db     *DB
	shared *Object
	own    []*Object // own[i]: the object child i+1 writes as a concurrent sibling
	init   undoState
	txns   []*txn.Txn
	parent []int
	dead   []bool

	mu  sync.Mutex
	log []undoOp
}

func newUndoScript(t *testing.T, seed int64) *undoScript {
	db := openMem(t)
	cell := NewClass("Cell", Attr{Name: "a", Type: TInt}, Attr{Name: "b", Type: TInt})
	if err := db.Dictionary().Register(cell); err != nil {
		t.Fatal(err)
	}
	s := &undoScript{t: t, seed: seed, db: db}
	setup := db.Begin()
	for i := 0; i < 4; i++ {
		obj, err := db.NewObject(setup, "Cell")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Set(setup, obj, "a", int64(100+i)); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := db.Persist(setup, obj); err != nil {
				t.Fatal(err)
			}
		}
		s.own = append(s.own, obj)
	}
	if err := db.SetRoot(setup, "r0", s.own[0]); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	s.shared, s.own = s.own[0], s.own[1:]
	s.init = s.actual()
	s.txns, s.parent, s.dead = []*txn.Txn{db.Begin()}, []int{-1}, []bool{false}
	return s
}

// actual reads what the database shows.
func (s *undoScript) actual() undoState {
	st := undoState{values: map[*Object][2]int64{}, persistent: map[*Object]bool{},
		deleted: map[*Object]bool{}, extent: map[OID]bool{}}
	st.roots = maps.Clone(*s.db.roots.Load())
	s.db.mu.Lock()
	for oid := range s.db.extents["Cell"] {
		st.extent[oid] = true
	}
	s.db.mu.Unlock()
	for _, obj := range s.db.cached() {
		obj.mu.RLock()
		if obj.values != nil {
			st.values[obj] = [2]int64{obj.values[0].(int64), obj.values[1].(int64)}
		}
		st.persistent[obj] = obj.persistent
		st.deleted[obj] = obj.deleted
		obj.mu.RUnlock()
	}
	return st
}

func (s *undoScript) alive(node int) bool {
	for n := node; n >= 0; n = s.parent[n] {
		if s.dead[n] {
			return false
		}
	}
	return true
}

// model replays the surviving operations on the state before the script.
func (s *undoScript) model() undoState {
	st := s.init.clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range s.log {
		if s.alive(op.node) {
			st.apply(op)
		}
	}
	return st
}

// check compares the database with the model. committed says the top
// has committed: its deletes then have left the extent and the objects
// their values.
func (s *undoScript) check(when string, committed bool) {
	s.t.Helper()
	want, got := s.model(), s.actual()
	if committed {
		for obj, del := range want.deleted {
			if del {
				delete(want.extent, obj.oid)
			}
		}
	}
	var diffs []string
	if !maps.Equal(want.extent, got.extent) {
		diffs = append(diffs, fmt.Sprintf("extent %v, model %v", got.extent, want.extent))
	}
	if !maps.Equal(want.roots, got.roots) {
		diffs = append(diffs, fmt.Sprintf("roots %v, model %v", got.roots, want.roots))
	}
	for obj := range want.values {
		if !want.extent[obj.oid] || committed && want.deleted[obj] {
			continue // rolled back or deleted for good: nothing to compare
		}
		if want.values[obj] != got.values[obj] || want.persistent[obj] != got.persistent[obj] ||
			want.deleted[obj] != got.deleted[obj] {
			diffs = append(diffs, fmt.Sprintf("%v: values %v persistent %v deleted %v, model %v %v %v",
				obj, got.values[obj], got.persistent[obj], got.deleted[obj],
				want.values[obj], want.persistent[obj], want.deleted[obj]))
		}
	}
	if len(diffs) > 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.t.Fatalf("seed %d, %s: the database differs from the replay of the surviving operations:\n  %v\nscript: %v, aborted %v",
			s.seed, when, diffs, s.log, s.dead)
	}
}

// step runs one random operation of node on one of objs, logging it
// when it succeeds. roots says the node may write the roots directory.
func (s *undoScript) step(rng *rand.Rand, node int, objs []*Object, roots bool) []*Object {
	t, db := s.txns[node], s.db
	op := undoOp{node: node, obj: objs[rng.Intn(len(objs))]}
	var err error
	switch p := rng.Intn(20); {
	case p < 12:
		op.kind, op.attr, op.val = 's', rng.Intn(2), int64(rng.Intn(1000))
		err = db.Set(t, op.obj, []string{"a", "b"}[op.attr], op.val)
	case p < 14:
		op.kind = 'n'
		op.obj, err = db.NewObject(t, "Cell")
		if err == nil {
			objs = append(objs, op.obj)
		}
	case p < 16:
		op.kind = 'p'
		err = db.Persist(t, op.obj)
	case p < 18 && roots:
		op.kind, op.name = 'r', fmt.Sprintf("r%d", rng.Intn(2))
		err = db.SetRoot(t, op.name, op.obj)
	default:
		op.kind = 'd'
		err = db.Delete(t, op.obj)
	}
	switch {
	case err == nil:
		s.mu.Lock()
		s.log = append(s.log, op)
		s.mu.Unlock()
	case !errors.Is(err, ErrDeleted):
		s.t.Errorf("seed %d: node %d %c %v: %v", s.seed, node, op.kind, op.obj, err)
	}
	return objs
}

func (s *undoScript) child() int {
	c, err := s.txns[0].BeginChild()
	if err != nil {
		s.t.Fatal(err)
	}
	s.txns, s.parent, s.dead = append(s.txns, c), append(s.parent, 0), append(s.dead, false)
	return len(s.txns) - 1
}

// resolve commits or aborts node and checks the database.
func (s *undoScript) resolve(node int, commit bool) {
	if commit {
		if err := s.txns[node].Commit(); err != nil {
			s.t.Fatalf("seed %d: node %d commit: %v", s.seed, node, err)
		}
		s.check(fmt.Sprintf("after node %d committed", node), node == 0)
		return
	}
	if err := s.txns[node].Abort(); err != nil {
		s.t.Fatalf("seed %d: node %d abort: %v", s.seed, node, err)
	}
	s.dead[node] = true
	s.check(fmt.Sprintf("after node %d aborted", node), false)
}

func runUndoScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := newUndoScript(t, seed)
	all := append([]*Object{s.shared}, s.own...)
	for i := rng.Intn(4); i > 0; i-- {
		all = s.step(rng, 0, all, true)
	}
	kids := 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		// One child at a time, between the parent's own operations.
		for k := 0; k < kids; k++ {
			c := s.child()
			for i := 1 + rng.Intn(4); i > 0; i-- {
				all = s.step(rng, c, all, true)
			}
			s.resolve(c, rng.Intn(2) == 0)
			all = s.step(rng, 0, all, true)
		}
	} else {
		// Concurrent siblings, each on objects of its own; the first also
		// writes the shared object, which the parent may hold.
		nodes := make([]int, kids)
		for k := range nodes {
			nodes[k] = s.child()
		}
		var wg sync.WaitGroup
		for k, c := range nodes {
			objs := []*Object{s.own[k]}
			if k == 0 {
				objs = append(objs, s.shared)
			}
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for i := 1 + rng.Intn(4); i > 0; i-- {
					objs = s.step(rng, c, objs, false)
				}
			}(rand.New(rand.NewSource(rng.Int63())))
		}
		wg.Wait()
		for _, k := range rng.Perm(kids) {
			s.resolve(nodes[k], rng.Intn(2) == 0)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		all = s.step(rng, 0, all, true)
	}
	if rng.Intn(2) == 0 {
		s.resolve(0, true)
		return
	}
	s.resolve(0, false)
	if got := s.actual(); !maps.Equal(got.roots, s.init.roots) || !maps.Equal(got.extent, s.init.extent) {
		t.Fatalf("seed %d: the top's abort left roots %v and extent %v, before the script %v and %v",
			seed, got.roots, got.extent, s.init.roots, s.init.extent)
	}
}

func TestUndoDifferential(t *testing.T) {
	scripts := 2000
	if testing.Short() {
		scripts = 300
	}
	for seed := int64(1); seed <= int64(scripts) && !t.Failed(); seed++ {
		runUndoScript(t, seed)
	}
}
