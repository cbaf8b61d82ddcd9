package oodb

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// setAndCommit is one attribute write to a persistent object and its
// commit: codec encode, store update and log force.
func setAndCommit(tb testing.TB, db *DB, obj *Object, level int64) {
	tx := db.Begin()
	if err := db.Set(tx, obj, "level", level); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkObjectFlushCommit(b *testing.B) {
	db := openDisk(b, b.TempDir())
	defer db.Close()
	registerRiver(b, db, false)
	obj := persistRiver(b, db, "Rhine", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setAndCommit(b, db, obj, int64(i))
	}
}

// TestFlushCommitAllocationCeiling: a durable commit of one persistent
// object allocates its transaction and its write set and nothing else —
// not the encode buffer, not the storage transaction's state.
func TestFlushCommitAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the encode buffer's sync.Pool drops puts at random under the race detector")
	}
	db := openDisk(t, t.TempDir())
	defer db.Close()
	registerRiver(t, db, false)
	obj := persistRiver(t, db, "Rhine", 0)
	level := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		level++
		setAndCommit(t, db, obj, level)
	}); n > 2 {
		t.Errorf("Set + Commit of a persistent object: %.0f allocations, ceiling 2", n)
	}
}

// TestCatalogRebuildAllocationCeiling: reopening a store rebuilds the
// catalog from each object record's head, read in place in the buffer
// pool: the allocations per object are the catalog's own entries,
// not a copy of the record or its decoded values.
func TestCatalogRebuildAllocationCeiling(t *testing.T) {
	const n, ceiling = 10000, 256
	// A 16-frame pool: its frames are a fixed cost, not a per-object one.
	opts := Options{Dir: t.TempDir(), Storage: storage.Options{BufferPoolPages: 16}}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	registerRiver(t, db, false)
	name := strings.Repeat("r", 512)
	tx := db.Begin()
	for i := 0; i < n; i++ {
		obj, err := db.NewObject(tx, "River")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Set(tx, obj, "name", name); err != nil {
			t.Fatal(err)
		}
		if err := db.Persist(tx, obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db2, err := Open(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := len(db2.objectTable()); got != n {
		t.Fatalf("catalog holds %d objects, want %d", got, n)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("Open allocated %d B per object", per)
	if per >= ceiling {
		t.Errorf("Open allocated %d B per object, want < %d", per, ceiling)
	}
}

// parallelObjects commits n persistent River objects, each named as a
// root, for the parallel access benchmarks.
func parallelObjects(b *testing.B, db *DB, n int) []*Object {
	objs := make([]*Object, n)
	tx := db.Begin()
	for i := range objs {
		obj, err := db.NewObject(tx, "River")
		if err != nil {
			b.Fatal(err)
		}
		if err := db.SetRoot(tx, fmt.Sprintf("r%d", i), obj); err != nil {
			b.Fatal(err)
		}
		objs[i] = obj
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return objs
}

// BenchmarkLoadParallel loads a cached object per goroutine, each its
// own, inside the goroutine's own transaction: nothing conflicts, so
// what the goroutines still pass between cores belongs to the catalog.
func BenchmarkLoadParallel(b *testing.B) {
	db := openDisk(b, b.TempDir())
	defer db.Close()
	registerRiver(b, db, false)
	objs := parallelObjects(b, db, 8)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		oid := objs[int(next.Add(1)-1)%len(objs)].OID()
		tx := db.Begin()
		defer tx.Commit()
		for pb.Next() {
			if _, err := db.Load(tx, oid); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRootParallel fetches a root per goroutine, each its own, as
// a rule condition does (OpenOODB->fetch, §6.1).
func BenchmarkRootParallel(b *testing.B) {
	db := openDisk(b, b.TempDir())
	defer db.Close()
	registerRiver(b, db, false)
	parallelObjects(b, db, 8)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("r%d", (next.Add(1)-1)%8)
		tx := db.Begin()
		defer tx.Commit()
		for pb.Next() {
			if _, err := db.Root(tx, name); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
