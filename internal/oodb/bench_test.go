package oodb

import "testing"

// BenchmarkObjectFlushCommit is one attribute write to a persistent
// object and its commit: codec encode, store update and log force.
func BenchmarkObjectFlushCommit(b *testing.B) {
	db := openDisk(b, b.TempDir())
	defer db.Close()
	registerRiver(b, db, false)
	obj := persistRiver(b, db, "Rhine", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := db.Set(tx, obj, "level", int64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
