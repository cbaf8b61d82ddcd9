package oodb

import "testing"

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
