package oodb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/txn"
)

// registerRiver registers the paper's River class on db.
func registerRiver(t testing.TB, db *DB, monitored bool) *Class {
	t.Helper()
	river := NewClass("River",
		Attr{Name: "name", Type: TString},
		Attr{Name: "level", Type: TInt},
		Attr{Name: "temp", Type: TFloat},
	)
	river.Monitored = monitored
	river.Method("updateWaterLevel", func(ctx *Ctx, self *Object, args []any) (any, error) {
		return nil, ctx.Set(self, "level", args[0])
	})
	river.Method("getWaterTemp", func(ctx *Ctx, self *Object, args []any) (any, error) {
		return ctx.GetFloat(self, "temp")
	})
	if err := db.Dictionary().Register(river); err != nil {
		t.Fatal(err)
	}
	return river
}

func openMem(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func openDisk(t testing.TB, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewObjectZeroValues(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, err := db.NewObject(tx, "River")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(tx, obj, "level"); v != int64(0) {
		t.Fatalf("zero level = %v", v)
	}
	if v, _ := db.Get(tx, obj, "name"); v != "" {
		t.Fatalf("zero name = %v", v)
	}
	if obj.Persistent() {
		t.Fatal("new object should be transient")
	}
	tx.Commit()
}

func TestSetGetTyped(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	if err := db.Set(tx, obj, "level", 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(tx, obj, "level"); v != int64(42) {
		t.Fatalf("level = %v, want 42", v)
	}
	if err := db.Set(tx, obj, "level", "not an int"); err == nil {
		t.Fatal("type error not detected")
	}
	if err := db.Set(tx, obj, "nonexistent", 1); !errors.Is(err, ErrNoSuchAttr) {
		t.Fatalf("err = %v, want ErrNoSuchAttr", err)
	}
	if _, err := db.Get(tx, obj, "nonexistent"); !errors.Is(err, ErrNoSuchAttr) {
		t.Fatalf("err = %v, want ErrNoSuchAttr", err)
	}
	tx.Commit()
}

func TestInvokeMethod(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	if _, err := db.Invoke(tx, obj, "updateWaterLevel", int64(35)); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(tx, obj, "level"); v != int64(35) {
		t.Fatalf("level = %v, want 35", v)
	}
	if _, err := db.Invoke(tx, obj, "noSuchMethod"); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("err = %v, want ErrNoSuchMethod", err)
	}
	tx.Commit()
}

func TestAbortRestoresAttributeValues(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Set(tx, obj, "level", 10)
	tx.Commit()

	tx2 := db.Begin()
	db.Set(tx2, obj, "level", 99)
	db.Set(tx2, obj, "level", 100)
	tx2.Abort()
	tx3 := db.Begin()
	if v, _ := db.Get(tx3, obj, "level"); v != int64(10) {
		t.Fatalf("level after abort = %v, want 10", v)
	}
	tx3.Commit()
}

func TestAbortRemovesCreatedObjects(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	oid := obj.OID()
	tx.Abort()
	tx2 := db.Begin()
	if _, err := db.Load(tx2, oid); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Load of rolled-back object err = %v, want ErrNoSuchObject", err)
	}
	found := false
	db.Extent("River", func(OID) { found = true })
	if found {
		t.Fatal("extent still contains rolled-back object")
	}
	tx2.Commit()
}

func TestPersistRootFetch(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Set(tx, obj, "name", "Rhine")
	db.Set(tx, obj, "level", 37)
	if err := db.SetRoot(tx, "cooling-river", obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDisk(t, dir)
	defer db2.Close()
	registerRiver(t, db2, false)
	tx2 := db2.Begin()
	got, err := db2.Root(tx2, "cooling-river")
	if err != nil {
		t.Fatal(err)
	}
	if got.OID() != obj.OID() {
		t.Fatalf("reopened root OID = %v, want %v", got.OID(), obj.OID())
	}
	if v, _ := db2.Get(tx2, got, "name"); v != "Rhine" {
		t.Fatalf("name = %v, want Rhine", v)
	}
	if v, _ := db2.Get(tx2, got, "level"); v != int64(37) {
		t.Fatalf("level = %v, want 37", v)
	}
	tx2.Commit()
}

func TestRootMissing(t *testing.T) {
	db := openMem(t)
	tx := db.Begin()
	if _, err := db.Root(tx, "nope"); !errors.Is(err, ErrNoSuchRoot) {
		t.Fatalf("err = %v, want ErrNoSuchRoot", err)
	}
	tx.Commit()
}

func TestUpdatePersistedObject(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Set(tx, obj, "level", 1)
	db.SetRoot(tx, "r", obj)
	tx.Commit()

	tx2 := db.Begin()
	db.Set(tx2, obj, "level", 2)
	tx2.Commit()
	db.Close()

	db2 := openDisk(t, dir)
	defer db2.Close()
	registerRiver(t, db2, false)
	tx3 := db2.Begin()
	got, _ := db2.Root(tx3, "r")
	if v, _ := db2.Get(tx3, got, "level"); v != int64(2) {
		t.Fatalf("level = %v, want 2", v)
	}
	tx3.Commit()
}

func TestAbortedTxnNotPersisted(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Set(tx, obj, "level", 5)
	db.SetRoot(tx, "r", obj)
	tx.Commit()

	tx2 := db.Begin()
	db.Set(tx2, obj, "level", 500)
	tx2.Abort()
	db.Close()

	db2 := openDisk(t, dir)
	defer db2.Close()
	registerRiver(t, db2, false)
	tx3 := db2.Begin()
	got, _ := db2.Root(tx3, "r")
	if v, _ := db2.Get(tx3, got, "level"); v != int64(5) {
		t.Fatalf("level = %v, want 5", v)
	}
	tx3.Commit()
}

func TestDeleteObject(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.SetRoot(tx, "r", obj)
	tx.Commit()
	oid := obj.OID()

	tx2 := db.Begin()
	if err := db.Delete(tx2, obj); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(tx2, obj, "level"); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get on deleted err = %v, want ErrDeleted", err)
	}
	tx2.Commit()
	db.Close()

	db2 := openDisk(t, dir)
	defer db2.Close()
	registerRiver(t, db2, false)
	tx3 := db2.Begin()
	if _, err := db2.Load(tx3, oid); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Load of deleted err = %v, want ErrNoSuchObject", err)
	}
	tx3.Commit()
}

func TestDeleteAbortRestores(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Set(tx, obj, "level", 7)
	tx.Commit()

	tx2 := db.Begin()
	db.Delete(tx2, obj)
	tx2.Abort()
	tx3 := db.Begin()
	if v, err := db.Get(tx3, obj, "level"); err != nil || v != int64(7) {
		t.Fatalf("after aborted delete: %v, %v", v, err)
	}
	tx3.Commit()
}

func TestFaultingAfterEviction(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	registerRiver(t, db, false)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Set(tx, obj, "name", "Main")
	db.SetRoot(tx, "r", obj)
	tx.Commit()

	db.EvictClean()
	tx2 := db.Begin()
	got, err := db.Root(tx2, "r")
	if err != nil {
		t.Fatal(err)
	}
	if got == obj {
		t.Fatal("eviction did not drop the resident copy")
	}
	if v, _ := db.Get(tx2, got, "name"); v != "Main" {
		t.Fatalf("faulted name = %v", v)
	}
	tx2.Commit()
	db.Close()
}

func TestPersistenceByReachability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, PersistByReachability: true})
	if err != nil {
		t.Fatal(err)
	}
	node := NewClass("Node",
		Attr{Name: "val", Type: TInt},
		Attr{Name: "next", Type: TRef},
	)
	if err := db.Dictionary().Register(node); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	a, _ := db.NewObject(tx, "Node")
	b, _ := db.NewObject(tx, "Node")
	c, _ := db.NewObject(tx, "Node")
	db.Set(tx, a, "val", 1)
	db.Set(tx, b, "val", 2)
	db.Set(tx, c, "val", 3)
	db.Set(tx, a, "next", b)
	db.Set(tx, b, "next", c)
	db.SetRoot(tx, "head", a) // only a persisted explicitly
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Options{Dir: dir, PersistByReachability: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.Dictionary().Register(NewClass("Node",
		Attr{Name: "val", Type: TInt},
		Attr{Name: "next", Type: TRef},
	))
	tx2 := db2.Begin()
	head, err := db2.Root(tx2, "head")
	if err != nil {
		t.Fatal(err)
	}
	sum := int64(0)
	for cur := head; cur != nil; {
		v, _ := db2.Get(tx2, cur, "val")
		sum += v.(int64)
		ref, _ := db2.Get(tx2, cur, "next")
		if ref.(OID) == 0 {
			break
		}
		next, err := db2.Load(tx2, ref.(OID))
		if err != nil {
			t.Fatalf("chain broken at %v: %v", ref, err)
		}
		cur = next
	}
	if sum != 6 {
		t.Fatalf("reachable chain sum = %d, want 6", sum)
	}
	tx2.Commit()
}

type captureSink struct {
	events []*event.Instance
	veto   map[string]bool
	wants  func(string) bool // nil means "wants everything"
}

func (s *captureSink) Wants(key string) bool {
	if s.wants == nil {
		return true
	}
	return s.wants(key)
}

func (s *captureSink) Emit(in *event.Instance) error {
	in.Retain() // stored past Emit; keep it out of the pool
	s.events = append(s.events, in)
	if s.veto[in.SpecKey] {
		return fmt.Errorf("vetoed %s", in.SpecKey)
	}
	return nil
}

func TestMonitoredClassEmitsMethodEvents(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, true)
	sink := &captureSink{}
	db.SetSink(sink)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	if _, err := db.Invoke(tx, obj, "updateWaterLevel", int64(30)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	var keys []string
	for _, e := range sink.events {
		keys = append(keys, e.SpecKey)
	}
	wantBefore := event.MethodSpec{Class: "River", Method: "updateWaterLevel", When: event.Before}.Key()
	wantAfter := event.MethodSpec{Class: "River", Method: "updateWaterLevel", When: event.After}.Key()
	var sawBefore, sawAfter, sawState, sawCreate bool
	for _, k := range keys {
		switch k {
		case wantBefore:
			sawBefore = true
		case wantAfter:
			sawAfter = true
		case event.StateSpec{Class: "River", Attr: "level"}.Key():
			sawState = true
		case event.MethodSpec{Class: "River", Method: MethodCreate, When: event.After}.Key():
			sawCreate = true
		}
	}
	if !sawBefore || !sawAfter || !sawState || !sawCreate {
		t.Fatalf("events %v missing before/after/state/create", keys)
	}
}

func TestUnmonitoredClassEmitsNothing(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	sink := &captureSink{}
	db.SetSink(sink)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Invoke(tx, obj, "updateWaterLevel", int64(30))
	tx.Commit()
	if len(sink.events) != 0 {
		t.Fatalf("unmonitored class produced %d events", len(sink.events))
	}
}

func TestBeforeEventVetoBlocksInvocation(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, true)
	key := event.MethodSpec{Class: "River", Method: "updateWaterLevel", When: event.Before}.Key()
	sink := &captureSink{veto: map[string]bool{key: true}}
	db.SetSink(sink)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Set(tx, obj, "level", 5)
	if _, err := db.Invoke(tx, obj, "updateWaterLevel", int64(30)); err == nil {
		t.Fatal("vetoed invocation succeeded")
	}
	if v, _ := db.Get(tx, obj, "level"); v != int64(5) {
		t.Fatalf("vetoed method still ran: level = %v", v)
	}
	tx.Commit()
}

func TestMethodEventCarriesParameters(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, true)
	sink := &captureSink{}
	db.SetSink(sink)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Invoke(tx, obj, "updateWaterLevel", int64(33))
	for _, e := range sink.events {
		if e.Kind == event.KindMethod && e.Method == "updateWaterLevel" {
			if e.OID != uint64(obj.OID()) {
				t.Fatalf("event OID = %d, want %d", e.OID, obj.OID())
			}
			if e.Txn != tx.ID() {
				t.Fatalf("event Txn = %d, want %d", e.Txn, tx.ID())
			}
			if len(e.Args) != 1 || e.Args[0] != int64(33) {
				t.Fatalf("event Args = %v", e.Args)
			}
		}
	}
	tx.Commit()
}

func TestInheritance(t *testing.T) {
	db := openMem(t)
	base := NewClass("Vehicle", Attr{Name: "speed", Type: TInt})
	base.Method("describe", func(ctx *Ctx, self *Object, args []any) (any, error) {
		return "vehicle", nil
	})
	if err := db.Dictionary().Register(base); err != nil {
		t.Fatal(err)
	}
	car := NewClass("Car", Attr{Name: "wheels", Type: TInt})
	car.Super = "Vehicle"
	if err := db.Dictionary().Register(car); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "Car")
	if err := db.Set(tx, obj, "speed", 120); err != nil {
		t.Fatalf("inherited attribute not available: %v", err)
	}
	if err := db.Set(tx, obj, "wheels", 4); err != nil {
		t.Fatal(err)
	}
	res, err := db.Invoke(tx, obj, "describe")
	if err != nil || res != "vehicle" {
		t.Fatalf("inherited method: %v, %v", res, err)
	}
	tx.Commit()
	if !db.Dictionary().IsSubclassOf("Car", "Vehicle") {
		t.Fatal("IsSubclassOf(Car, Vehicle) = false")
	}
	if db.Dictionary().IsSubclassOf("Vehicle", "Car") {
		t.Fatal("IsSubclassOf(Vehicle, Car) = true")
	}
}

func TestInheritanceErrors(t *testing.T) {
	db := openMem(t)
	orphan := NewClass("Orphan")
	orphan.Super = "Missing"
	if err := db.Dictionary().Register(orphan); err == nil {
		t.Fatal("registering with missing superclass succeeded")
	}
	base := NewClass("B", Attr{Name: "x", Type: TInt})
	db.Dictionary().Register(base)
	shadow := NewClass("S", Attr{Name: "x", Type: TInt})
	shadow.Super = "B"
	if err := db.Dictionary().Register(shadow); err == nil {
		t.Fatal("redeclaring inherited attribute succeeded")
	}
	if err := db.Dictionary().Register(NewClass("B")); err == nil {
		t.Fatal("duplicate class registration succeeded")
	}
}

func TestExtent(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	tx := db.Begin()
	for i := 0; i < 5; i++ {
		db.NewObject(tx, "River")
	}
	tx.Commit()
	n := 0
	db.Extent("River", func(OID) { n++ })
	if n != 5 {
		t.Fatalf("extent size = %d, want 5", n)
	}
}

func TestNestedTxnAttributeUndo(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, false)
	top := db.Begin()
	obj, _ := db.NewObject(top, "River")
	db.Set(top, obj, "level", 1)
	child, _ := top.BeginChild()
	db.Set(child, obj, "level", 2)
	child.Abort()
	if v, _ := db.Get(top, obj, "level"); v != int64(1) {
		t.Fatalf("level after child abort = %v, want 1", v)
	}
	child2, _ := top.BeginChild()
	db.Set(child2, obj, "level", 3)
	child2.Commit()
	if v, _ := db.Get(top, obj, "level"); v != int64(3) {
		t.Fatalf("level after child commit = %v, want 3", v)
	}
	top.Commit()
}

func TestSinkWantsFilterSuppressesEmit(t *testing.T) {
	db := openMem(t)
	registerRiver(t, db, true)
	sink := &captureSink{wants: func(string) bool { return false }}
	db.SetSink(sink)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "River")
	db.Invoke(tx, obj, "updateWaterLevel", int64(30))
	tx.Commit()
	if len(sink.events) != 0 {
		t.Fatalf("Wants=false still delivered %d events", len(sink.events))
	}
}

// A monitored class resolves its events' spec keys when its methods and
// attributes are registered: raising an Invoke or a Set that no one
// listens to allocates exactly what the unmonitored call does.
func TestMonitoredKeyResolutionAllocatesNothing(t *testing.T) {
	var asked string
	costs := func(monitored bool) (invoke, set float64) {
		db := openMem(t)
		registerRiver(t, db, monitored)
		db.SetSink(&captureSink{wants: func(key string) bool { asked = key; return false }})
		tx := db.Begin()
		defer tx.Abort()
		obj, _ := db.NewObject(tx, "River")
		invoke = testing.AllocsPerRun(200, func() {
			if _, err := db.Invoke(tx, obj, "updateWaterLevel", int64(30)); err != nil {
				t.Fatal(err)
			}
		})
		set = testing.AllocsPerRun(200, func() {
			if err := db.Set(tx, obj, "temp", 21.5); err != nil {
				t.Fatal(err)
			}
		})
		return invoke, set
	}
	plainInvoke, plainSet := costs(false)
	invoke, set := costs(true)
	if want := (event.StateSpec{Class: "River", Attr: "temp"}).Key(); asked != want {
		t.Fatalf("sentry asked for %q, want %q", asked, want)
	}
	if invoke != plainInvoke {
		t.Errorf("monitored Invoke: %.0f allocations, unmonitored %.0f: key resolution must allocate nothing", invoke, plainInvoke)
	}
	if set != plainSet {
		t.Errorf("monitored Set: %.0f allocations, unmonitored %.0f: key resolution must allocate nothing", set, plainSet)
	}
}

// A Set in a transaction that has already written allocates nothing:
// the before-image is a record in the transaction's log, not a closure,
// and the write set lists the object once without a map. Each run
// writes in a transaction of its own, begun and first written before
// counting, so no log outgrows its inline room.
func TestSetAllocatesNothing(t *testing.T) {
	const runs = 50
	db := openMem(t)
	registerRiver(t, db, false)
	setup := db.Begin()
	objs := make([]*Object, runs+1)
	for i := range objs {
		objs[i], _ = db.NewObject(setup, "River")
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	txs := make([]*txn.Txn, runs+1)
	for i := range txs {
		txs[i] = db.Begin()
		defer txs[i].Abort()
		if err := db.Set(txs[i], objs[i], "temp", 20.5); err != nil {
			t.Fatal(err)
		}
	}
	level, i := any(int64(1000)), 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := db.Set(txs[i], objs[i], "level", level); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("Set in a transaction that already wrote: %.0f allocations, want 0", n)
	}
}

// An inherited method raises its events under the subclass's name.
func TestInheritedMethodEventKeys(t *testing.T) {
	db := openMem(t)
	base := NewClass("Vehicle", Attr{Name: "speed", Type: TInt})
	base.Monitored = true
	base.Method("honk", func(*Ctx, *Object, []any) (any, error) { return nil, nil })
	car := NewClass("Car")
	car.Super = "Vehicle"
	car.Monitored = true
	for _, c := range []*Class{base, car} {
		if err := db.Dictionary().Register(c); err != nil {
			t.Fatal(err)
		}
	}
	sink := &captureSink{}
	db.SetSink(sink)
	tx := db.Begin()
	obj, _ := db.NewObject(tx, "Car")
	if _, err := db.Invoke(tx, obj, "honk"); err != nil {
		t.Fatal(err)
	}
	if err := db.Set(tx, obj, "speed", int64(3)); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(tx, obj); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	var got []string
	for _, in := range sink.events {
		got = append(got, in.SpecKey)
	}
	want := []string{
		event.MethodSpec{Class: "Car", Method: MethodCreate, When: event.After}.Key(),
		event.MethodSpec{Class: "Car", Method: "honk", When: event.Before}.Key(),
		event.MethodSpec{Class: "Car", Method: "honk", When: event.After}.Key(),
		event.StateSpec{Class: "Car", Attr: "speed"}.Key(),
		event.MethodSpec{Class: "Car", Method: MethodDelete, When: event.Before}.Key(),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("event keys = %v, want %v", got, want)
	}
}
