package txn

import (
	"sync/atomic"
	"testing"
)

// The lock and subtransaction costs on the rule-firing path: every rule
// runs in a child that re-reads objects its tree already holds.

func BenchmarkChildBeginCommitInherit(b *testing.B) {
	m := NewManager()
	top := m.Begin()
	if err := top.Lock(7, LockExclusive); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := top.BeginChild()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Lock(7, LockExclusive); err != nil {
			b.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockReentrant(b *testing.B) {
	m := NewManager()
	t := m.Begin()
	if err := t.Lock(7, LockExclusive); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Lock(7, LockShared); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockUncontended locks distinct resources from parallel
// transactions: nothing conflicts, so anything the goroutines still
// serialize on is the table's own.
func BenchmarkLockUncontended(b *testing.B) {
	m := NewManager()
	var next atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := next.Add(1) << 32
		for pb.Next() {
			t := m.Begin()
			for r := uint64(0); r < 4; r++ {
				if err := t.Lock(base+r, LockExclusive); err != nil {
					b.Error(err)
					return
				}
			}
			if err := t.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkBeginChildParallel begins a child of each goroutine's own
// top-level transaction, locks the resource its parent holds in it and
// commits it: no two goroutines share a transaction or a lock, so what
// they still pass between cores belongs to the manager.
func BenchmarkBeginChildParallel(b *testing.B) {
	m := NewManager()
	var next atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		r := next.Add(1)
		top := m.Begin()
		if err := top.Lock(r, LockExclusive); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			c, err := top.BeginChild()
			if err != nil {
				b.Error(err)
				return
			}
			if err := c.Lock(r, LockExclusive); err != nil {
				b.Error(err)
				return
			}
			if err := c.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
		if err := top.Commit(); err != nil {
			b.Error(err)
		}
	})
}
