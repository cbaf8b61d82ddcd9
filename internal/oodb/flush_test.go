package oodb

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/storage"
)

// tooLarge is a string attribute whose record cannot fit a page, so
// the storage write of any object holding it fails.
var tooLarge = strings.Repeat("x", 9000)

func persistRiver(t testing.TB, db *DB, name string, level int64) *Object {
	t.Helper()
	tx := db.Begin()
	obj, err := db.NewObject(tx, "River")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Set(tx, obj, "name", name); err != nil {
		t.Fatal(err)
	}
	if err := db.Set(tx, obj, "level", level); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(tx, obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return obj
}

func extentHas(db *DB, class string, oid OID) bool {
	found := false
	db.Extent(class, func(o OID) { found = found || o == oid })
	return found
}

// TestFailedCommitKeepsDeletedObject: a delete whose transaction fails
// to commit durably must leave the object where it was — loadable, in
// its extent, with its values.
func TestFailedCommitKeepsDeletedObject(t *testing.T) {
	db := openDisk(t, t.TempDir())
	defer db.Close()
	registerRiver(t, db, false)
	x := persistRiver(t, db, "Rhine", 3)
	y := persistRiver(t, db, "Elbe", 4)

	tx := db.Begin()
	if err := db.Delete(tx, x); err != nil {
		t.Fatal(err)
	}
	if err := db.Set(tx, y, "name", tooLarge); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, storage.ErrRecordTooLarge) {
		t.Fatalf("commit err = %v, want ErrRecordTooLarge", err)
	}

	tx2 := db.Begin()
	defer tx2.Commit()
	got, err := db.Load(tx2, x.OID())
	if err != nil {
		t.Fatalf("Load of the undeleted object: %v", err)
	}
	if v, err := db.Get(tx2, got, "level"); err != nil || v != int64(3) {
		t.Fatalf("level after failed delete = %v, %v; want 3", v, err)
	}
	if !extentHas(db, "River", x.OID()) {
		t.Fatal("undeleted object missing from its extent")
	}
	if v, err := db.Get(tx2, y, "name"); err != nil || v != "Elbe" {
		t.Fatalf("name after failed update = %v, %v; want Elbe", v, err)
	}
}

// TestFailedCommitForgetsInsertedObject: an object created by a
// transaction whose commit fails after its record was stored must not
// stay in the object table pointing at the rolled-back record.
func TestFailedCommitForgetsInsertedObject(t *testing.T) {
	db := openDisk(t, t.TempDir())
	defer db.Close()
	registerRiver(t, db, false)

	tx := db.Begin()
	z, err := db.NewObject(tx, "River")
	if err != nil {
		t.Fatal(err)
	}
	// The roots record is written after every object record, so its
	// failure comes after z's insert reached the store.
	if err := db.SetRoot(tx, tooLarge, z); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, storage.ErrRecordTooLarge) {
		t.Fatalf("commit err = %v, want ErrRecordTooLarge", err)
	}

	tx2 := db.Begin()
	defer tx2.Commit()
	if _, err := db.Load(tx2, z.OID()); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("Load of the never-committed object err = %v, want ErrNoSuchObject", err)
	}
	if extentHas(db, "River", z.OID()) {
		t.Fatal("never-committed object left in its extent")
	}
	// The store and catalog still work: the next object commits.
	w := persistRiver(t, db, "Oder", 1)
	if _, err := db.Load(tx2, w.OID()); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedDeleteReleasesValues: once a delete commits, the object
// handle no longer pins its attribute values, and Get and Invoke keep
// refusing it; an aborted delete keeps them.
func TestCommittedDeleteReleasesValues(t *testing.T) {
	for _, disk := range []bool{false, true} {
		db := openMem(t)
		if disk {
			db = openDisk(t, t.TempDir())
		}
		registerRiver(t, db, false)
		obj := persistRiver(t, db, "Rhine", 3)

		tx := db.Begin()
		if err := db.Delete(tx, obj); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if obj.values == nil {
			t.Fatalf("disk=%v: aborted delete released the values", disk)
		}

		tx = db.Begin()
		if err := db.Delete(tx, obj); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if obj.values != nil {
			t.Fatalf("disk=%v: committed delete kept %d values alive", disk, len(obj.values))
		}
		tx = db.Begin()
		if _, err := db.Get(tx, obj, "level"); !errors.Is(err, ErrDeleted) {
			t.Fatalf("disk=%v: Get after delete err = %v, want ErrDeleted", disk, err)
		}
		if _, err := db.Invoke(tx, obj, "updateWaterLevel", int64(1)); !errors.Is(err, ErrDeleted) {
			t.Fatalf("disk=%v: Invoke after delete err = %v, want ErrDeleted", disk, err)
		}
		tx.Commit()
		db.Close()
	}
}

// TestOneAttributeObjectInOnePiece: a one-attribute object's slot sits
// inside the object, and a committed delete clears it there too, so a
// handle kept after the delete pins no payload.
func TestOneAttributeObjectInOnePiece(t *testing.T) {
	db := openMem(t)
	blob := NewClass("Blob", Attr{Name: "payload", Type: TString})
	if err := db.Dictionary().Register(blob); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	obj, err := db.NewObject(tx, "Blob")
	if err != nil {
		t.Fatal(err)
	}
	if &obj.values[0] != &obj.room[0] {
		t.Fatal("one-attribute object's slot is not inside the object")
	}
	if err := db.Set(tx, obj, "payload", string(make([]byte, 512))); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(tx, obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if err := db.Delete(tx, obj); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if obj.values != nil || obj.room[0] != nil {
		t.Fatalf("committed delete kept the payload alive: values %d, room %v", len(obj.values), obj.room[0] != nil)
	}
}
