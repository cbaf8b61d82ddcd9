package oodb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/storage"
	"repro/internal/txn"
)

// Every Load and Root reads dict, txns, store, clk, sink and roots
// through the DB and takes its OID's shard lock, while creation and
// root writes write mu and nextOID: each shard fills whole lines, and
// the written fields sit a line away from the read ones.
func TestCatalogShardsOwnTheirCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(catalogShard{}); n%cacheLine != 0 {
		t.Errorf("a catalog shard is %d bytes, want whole %d-byte lines", n, cacheLine)
	}
	type field struct {
		name      string
		off, size uintptr
	}
	var db DB
	written := []field{
		{"mu", unsafe.Offsetof(db.mu), unsafe.Sizeof(db.mu)},
		{"nextOID", unsafe.Offsetof(db.nextOID), unsafe.Sizeof(db.nextOID)},
	}
	read := []field{
		{"dict", unsafe.Offsetof(db.dict), unsafe.Sizeof(db.dict)},
		{"txns", unsafe.Offsetof(db.txns), unsafe.Sizeof(db.txns)},
		{"store", unsafe.Offsetof(db.store), unsafe.Sizeof(db.store)},
		{"clk", unsafe.Offsetof(db.clk), unsafe.Sizeof(db.clk)},
		{"sink", unsafe.Offsetof(db.sink), unsafe.Sizeof(db.sink)},
		{"roots", unsafe.Offsetof(db.roots), unsafe.Sizeof(db.roots)},
	}
	for _, w := range written {
		for _, r := range read {
			// gap is the number of bytes between the two fields.
			gap := int64(w.off) - int64(r.off+r.size)
			if w.off < r.off {
				gap = int64(r.off) - int64(w.off+w.size)
			}
			if gap < cacheLine {
				t.Errorf("%s is %d bytes from %s, want at least %d", w.name, gap, r.name, cacheLine)
			}
		}
	}
}

// relocatingAbort makes a top-level abort relocate a committed record:
// the transaction deletes x, whose record shares its page with d's,
// then fails its flush on d. While its flush is paused after the
// delete, another transaction commits a record into the bytes x's
// record left, so that the abort's restore of x no longer fits the
// page. The pause is d's catalog shard, which the flush takes after the
// delete. It returns the new object's OID.
func relocatingAbort(t *testing.T, db *DB, d, x *Object) OID {
	ridX, ok := db.lookupRID(x.OID())
	if !ok {
		t.Fatal("x has no record")
	}
	tx := db.Begin()
	if err := db.Delete(tx, x); err != nil {
		t.Fatal(err)
	}
	if err := db.Set(tx, d, "name", tooLarge); err != nil {
		t.Fatal(err)
	}
	sh := db.shard(d.OID())
	sh.mu.Lock()
	release := sync.OnceFunc(sh.mu.Unlock)
	defer release()
	failed := make(chan error, 1)
	go func() { failed <- tx.Commit() }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := db.store.Get(ridX); err != nil {
			break // the flush has deleted x's record
		}
		if time.Now().After(deadline) {
			t.Fatal("the flush never deleted x's record")
		}
	}
	filler := persistRiver(t, db, strings.Repeat("f", 6000), 0)
	if db.shard(filler.OID()) == sh {
		t.Fatal("the filler shares d's shard")
	}
	release()
	if err := <-failed; !errors.Is(err, storage.ErrRecordTooLarge) {
		t.Fatalf("commit err = %v, want ErrRecordTooLarge", err)
	}
	if _, err := db.store.Get(ridX); err == nil {
		t.Fatal("the abort restored x in place: nothing relocated")
	}
	return filler.OID()
}

// TestCatalogUnderConcurrentClients drives the striped catalog from
// concurrent clients on a disk-backed database: first a top-level
// abort relocates a record, so flushAbort re-points the object table
// across every shard, while readers load their own objects; then each
// client creates, persists, updates, loads and deletes its own objects,
// aborting some of the transactions and failing the flushes of others.
// While an object is cached, Load returns the one *Object; a committed
// delete reads ErrDeleted through its handle; the extent counts the
// live objects; and a reopened catalog holds exactly the model.
func TestCatalogUnderConcurrentClients(t *testing.T) {
	const clients, steps = 3, 60
	dir := t.TempDir()
	db := openDisk(t, dir)
	registerRiver(t, db, false)

	levels := map[OID]int64{} // the model: every live object's level
	var readers []*Object
	for c := 0; c < clients; c++ {
		obj := persistRiver(t, db, "reader", int64(c))
		readers = append(readers, obj)
		levels[obj.OID()] = int64(c)
	}
	d := persistRiver(t, db, "d", 100)
	x := persistRiver(t, db, strings.Repeat("x", 3000), 101)
	levels[d.OID()], levels[x.OID()] = 100, 101

	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders()
	for _, obj := range readers {
		wg.Add(1)
		go func(obj *Object) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := db.Begin()
				got, err := db.Load(tx, obj.OID())
				if err != nil || got != obj {
					t.Errorf("Load(%v) = %p, %v; want the cached %p", obj.OID(), got, err, obj)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(obj)
	}
	filler := relocatingAbort(t, db, d, x)
	stopReaders()
	levels[filler] = 0
	tx := db.Begin()
	if got, err := db.Load(tx, x.OID()); err != nil || got != x {
		t.Fatalf("Load(x) after the relocating abort = %p, %v; want the cached %p", got, err, x)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Faults of one object racing each other: the losers take the
	// winner's object. The first round reads x's relocated record.
	for round := 0; round < 20; round++ {
		db.EvictClean()
		var got [clients + 1]*Object
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tx := db.Begin()
				defer tx.Commit()
				obj, err := db.Load(tx, x.OID())
				if err != nil {
					t.Errorf("Load(x) from its record: %v", err)
					return
				}
				if v, err := db.Get(tx, obj, "name"); err != nil || v != strings.Repeat("x", 3000) {
					t.Errorf("x's name from its record = %.8q…, %v", v, err)
				}
				got[i] = obj
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, obj := range got {
			if obj != got[0] {
				t.Fatalf("round %d: concurrent faults of x returned %p and %p", round, got[0], obj)
			}
		}
	}

	models := make([]map[OID]int64, clients)
	for c := range models {
		// spare is never deleted: a transaction fails its flush by
		// writing a name into it that no page can hold.
		spare := persistRiver(t, db, "spare", 0)
		models[c] = map[OID]int64{spare.OID(): 0}
		wg.Add(1)
		go func(c int, rng *rand.Rand) {
			defer wg.Done()
			if err := runCatalogClient(db, rng, spare, models[c], steps); err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c, rand.New(rand.NewSource(int64(c))))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, m := range models {
		for oid, level := range m {
			levels[oid] = level
		}
	}
	checkCatalog(t, db, levels)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openDisk(t, dir)
	defer db.Close()
	registerRiver(t, db, false)
	checkCatalog(t, db, levels)
}

// runCatalogClient runs steps random operations on objects of the
// client's own, keeping model — each live object's committed level —
// up to date, and checks each result against it. A transaction fails
// its flush through spare.
func runCatalogClient(db *DB, rng *rand.Rand, spare *Object, model map[OID]int64, steps int) error {
	objs := map[OID]*Object{} // the client's other live objects
	pick := func() OID {
		oids := make([]OID, 0, len(objs))
		for oid := range objs {
			oids = append(oids, oid)
		}
		slices.Sort(oids)
		return oids[rng.Intn(len(oids))]
	}
	for i := 0; i < steps; i++ {
		tx := db.Begin()
		switch p := rng.Intn(10); {
		case p < 3 || len(objs) == 0:
			obj, err := db.NewObject(tx, "River")
			if err != nil {
				return err
			}
			level := rng.Int63n(1000)
			if err := db.Set(tx, obj, "level", level); err != nil {
				return err
			}
			if err := db.Persist(tx, obj); err != nil {
				return err
			}
			committed, err := resolve(db, tx, spare, rng)
			if err != nil {
				return err
			}
			if committed {
				objs[obj.OID()], model[obj.OID()] = obj, level
			} else if err := loadFails(db, obj.OID(), ErrNoSuchObject); err != nil {
				return fmt.Errorf("Load of an aborted creation: %w", err)
			}
		case p < 7:
			oid := pick()
			obj, err := db.Load(tx, oid)
			if err != nil {
				return err
			}
			if obj != objs[oid] {
				return fmt.Errorf("Load(%v) returned a second object while it is cached", oid)
			}
			if v, err := db.Get(tx, obj, "level"); err != nil || v != model[oid] {
				return fmt.Errorf("%v's level = %v, %v; model %d", oid, v, err, model[oid])
			}
			level := rng.Int63n(1000)
			if err := db.Set(tx, obj, "level", level); err != nil {
				return err
			}
			committed, err := resolve(db, tx, spare, rng)
			if err != nil {
				return err
			}
			if committed {
				model[oid] = level
			}
		default:
			oid := pick()
			obj, err := db.Load(tx, oid)
			if err != nil {
				return err
			}
			if err := db.Delete(tx, obj); err != nil {
				return err
			}
			committed, err := resolve(db, tx, spare, rng)
			if err != nil {
				return err
			}
			if !committed {
				break
			}
			delete(objs, oid)
			delete(model, oid)
			check := db.Begin()
			if _, err := db.Get(check, obj, "level"); !errors.Is(err, ErrDeleted) {
				return fmt.Errorf("Get of a committed delete: %v, want ErrDeleted", err)
			}
			if err := check.Commit(); err != nil {
				return err
			}
			if err := loadFails(db, oid, ErrNoSuchObject); err != nil {
				return fmt.Errorf("Load of a committed delete: %w", err)
			}
		}
	}
	return nil
}

// resolve commits tx, aborts it, or fails its flush by writing a name
// no page can hold into spare, and reports whether tx committed.
func resolve(db *DB, tx *txn.Txn, spare *Object, rng *rand.Rand) (bool, error) {
	switch rng.Intn(4) {
	case 0:
		return false, tx.Abort()
	case 1:
		if err := db.Set(tx, spare, "name", tooLarge); err != nil {
			return false, err
		}
		if err := tx.Commit(); !errors.Is(err, storage.ErrRecordTooLarge) {
			return false, fmt.Errorf("commit of a record too large: %v", err)
		}
		return false, nil
	}
	return true, tx.Commit()
}

// loadFails checks that loading oid fails with want.
func loadFails(db *DB, oid OID, want error) error {
	tx := db.Begin()
	defer tx.Commit()
	if _, err := db.Load(tx, oid); !errors.Is(err, want) {
		return fmt.Errorf("Load(%v) = %v, want %v", oid, err, want)
	}
	return nil
}

// checkCatalog compares the object table, the extent and every live
// object's level with levels, and checks that Load keeps returning the
// object it cached.
func checkCatalog(t *testing.T, db *DB, levels map[OID]int64) {
	t.Helper()
	table := db.objectTable()
	extent := map[OID]bool{}
	db.Extent("River", func(oid OID) { extent[oid] = true })
	if len(table) != len(levels) || len(extent) != len(levels) {
		t.Fatalf("object table %d entries, extent %d, model %d", len(table), len(extent), len(levels))
	}
	tx := db.Begin()
	defer tx.Commit()
	for oid, level := range levels {
		if _, ok := table[oid]; !ok || !extent[oid] {
			t.Fatalf("%v: in object table %v, in extent %v; want both", oid, ok, extent[oid])
		}
		obj, err := db.Load(tx, oid)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := db.Get(tx, obj, "level"); err != nil || v != level {
			t.Fatalf("%v's level = %v, %v; model %d", oid, v, err, level)
		}
		if again, err := db.Load(tx, oid); err != nil || again != obj {
			t.Fatalf("Load(%v) again = %p, %v; want the cached %p", oid, again, err, obj)
		}
	}
}

// TestRootSnapshotFollowsSetRootAndAbort: Root reads the roots
// directory without a lock, from a snapshot each change republishes. A
// root set is visible to Root at once, uncommitted; an abort, of a
// subtransaction or of the top, puts the old OID back; a reopen reads
// the committed roots. A reader on its own root runs throughout.
func TestRootSnapshotFollowsSetRootAndAbort(t *testing.T) {
	dir := t.TempDir()
	db := openDisk(t, dir)
	registerRiver(t, db, false)
	a := persistRiver(t, db, "a", 1)
	b := persistRiver(t, db, "b", 2)
	fixed := persistRiver(t, db, "fixed", 3)
	setup := db.Begin()
	if err := db.SetRoot(setup, "fixed", fixed); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	stopReader := sync.OnceFunc(func() { close(stop); <-done })
	defer stopReader()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := db.Begin()
			if got, err := db.Root(tx, "fixed"); err != nil || got != fixed {
				t.Errorf("Root(fixed) = %p, %v; want %p", got, err, fixed)
			}
			if !slices.Contains(db.RootNames(), "fixed") {
				t.Error("RootNames lost fixed")
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}
	}()

	root := func(tx *txn.Txn, name string, want *Object) {
		t.Helper()
		got, err := db.Root(tx, name)
		if want == nil {
			if !errors.Is(err, ErrNoSuchRoot) {
				t.Fatalf("Root(%s) = %v, %v; want ErrNoSuchRoot", name, got, err)
			}
			return
		}
		if err != nil || got != want {
			t.Fatalf("Root(%s) = %v, %v; want %v", name, got, err, want)
		}
	}
	set := func(tx *txn.Txn, name string, obj *Object) {
		t.Helper()
		if err := db.SetRoot(tx, name, obj); err != nil {
			t.Fatal(err)
		}
		root(tx, name, obj)
	}

	tx := db.Begin()
	set(tx, "main", a)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	set(tx, "main", b)
	set(tx, "new", b)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin()
	root(tx, "main", a)
	root(tx, "new", nil)
	child, err := tx.BeginChild()
	if err != nil {
		t.Fatal(err)
	}
	set(child, "main", b)
	set(child, "new", b)
	if err := child.Abort(); err != nil {
		t.Fatal(err)
	}
	root(tx, "main", a)
	root(tx, "new", nil)
	set(tx, "side", b)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	stopReader()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openDisk(t, dir)
	defer db.Close()
	registerRiver(t, db, false)
	names := db.RootNames()
	slices.Sort(names)
	if want := []string{"fixed", "main", "side"}; !slices.Equal(names, want) {
		t.Fatalf("RootNames after reopen = %v, want %v", names, want)
	}
	tx = db.Begin()
	defer tx.Commit()
	for name, oid := range map[string]OID{"fixed": fixed.OID(), "main": a.OID(), "side": b.OID()} {
		if got, err := db.Root(tx, name); err != nil || got.OID() != oid {
			t.Fatalf("Root(%s) after reopen = %v, %v; want %v", name, got, err, oid)
		}
	}
}
