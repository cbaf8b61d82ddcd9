package eca

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/oodb"
	"repro/internal/txn"
)

// historyEngine is an engine with one inert immediate rule on ping, so
// every ping is recorded.
func historyEngine(t *testing.T, opts Options) (*Engine, *oodb.DB, *oodb.Object) {
	t.Helper()
	e, db, _ := newTestEngine(t, opts)
	obj := newSensor(t, db)
	if err := e.AddRule(&Rule{
		Name: "r", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(*RuleCtx) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	return e, db, obj
}

func ping(t *testing.T, db *oodb.DB, tx *txn.Txn, obj *oodb.Object, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.Invoke(tx, obj, "ping", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// globalOf returns the Seqs the global history holds for a transaction,
// failing when they are not in occurrence order.
func globalOf(t *testing.T, e *Engine, id uint64) []uint64 {
	t.Helper()
	var seqs []uint64
	var last uint64
	for _, en := range e.GlobalHistory() {
		if en.Seq <= last {
			t.Fatalf("global history out of Seq order: %d after %d", en.Seq, last)
		}
		last = en.Seq
		if en.Txn == id {
			seqs = append(seqs, en.Seq)
		}
	}
	return seqs
}

// A transaction's occurrences reach the global history even when they
// outnumber the local ring it used to be read back from.
func TestGlobalHistoryKeepsMoreThanLocalRing(t *testing.T) {
	e, db, obj := historyEngine(t, Options{})
	tx := db.Begin()
	ping(t, db, tx, obj, 300)
	if n := len(e.GlobalHistory()); n != 0 {
		t.Fatalf("global history before commit = %d entries, want 0", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := len(globalOf(t, e, tx.ID())); got != 300 {
		t.Fatalf("global history holds %d of the transaction's 300 occurrences", got)
	}
	if got := len(e.planFor(pingKey()).m.LocalHistory()); got != 256 {
		t.Fatalf("local ring = %d entries, want its capacity 256", got)
	}
}

// A neighbour wrapping the shared local ring first costs a transaction
// nothing.
func TestGlobalHistoryInterleavedTxnsOnHotKey(t *testing.T) {
	e, db, obj := historyEngine(t, Options{})
	other := newSensor(t, db)
	a, b := db.Begin(), db.Begin()
	const n = localHistorySize * 5 / 2 // each wraps the shared ring
	for i := 0; i < n; i++ {
		ping(t, db, a, obj, 1)
		ping(t, db, b, other, 1)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := len(globalOf(t, e, a.ID())); got != n {
		t.Fatalf("first transaction: %d of %d occurrences in the global history", got, n)
	}
	if got := len(globalOf(t, e, b.ID())); got != 0 {
		t.Fatalf("uncommitted transaction already has %d global entries", got)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := len(globalOf(t, e, b.ID())); got != n {
		t.Fatalf("second transaction: %d of %d occurrences in the global history", got, n)
	}
}

func TestGlobalHistoryTakesAbortedTxn(t *testing.T) {
	e, db, obj := historyEngine(t, Options{})
	tx := db.Begin()
	ping(t, db, tx, obj, 5)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := len(globalOf(t, e, tx.ID())); got != 5 {
		t.Fatalf("aborted transaction: %d of 5 occurrences in the global history", got)
	}
}

// The global ring keeps exactly the newest globalHistorySize
// occurrences handed to it, oldest evicted first — also when one
// transaction hands over more than the ring holds.
func TestGlobalHistoryEvictionOrder(t *testing.T) {
	const g = globalHistorySize
	e, db, obj := historyEngine(t, Options{})
	// The local ring is smaller than the global one: record the
	// occurrences as they fire instead.
	var raised []uint64
	if err := e.AddRule(&Rule{
		Name: "seqs", EventKey: pingKey(), ActionMode: Immediate,
		Action: func(rc *RuleCtx) error { raised = append(raised, rc.Trigger.Seq); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for _, n := range []int{3 * g / 8, 4 * g / 8, 5 * g / 8} {
		tx := db.Begin()
		ping(t, db, tx, obj, n)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want = append(want, globalOf(t, e, tx.ID())...)
		want = want[max(0, len(want)-g):]
		got := e.GlobalHistory()
		if len(got) != len(want) {
			t.Fatalf("global history = %d entries, want %d", len(got), len(want))
		}
		for i, en := range got {
			if en.Seq != want[i] {
				t.Fatalf("global history[%d].Seq = %d, want %d (newest %d in order)", i, en.Seq, want[i], g)
			}
		}
	}
	big := db.Begin()
	raised = raised[:0]
	ping(t, db, big, obj, 5*g) // sheds its own oldest occurrences while it runs
	if err := big.Commit(); err != nil {
		t.Fatal(err)
	}
	got := e.GlobalHistory()
	if len(got) != g {
		t.Fatalf("global history = %d entries, want %d", len(got), g)
	}
	for i, en := range got {
		if w := raised[len(raised)-g+i]; en.Seq != w || en.Txn != big.ID() {
			t.Fatalf("global history[%d] = %+v, want the transaction's occurrence %d", i, en, w)
		}
	}
}

// The governor's history gauge is the footprint of what the rings hold.
func TestHistoryBytesMatchesRings(t *testing.T) {
	e, db, obj := historyEngine(t, Options{})
	check := func(when string) {
		t.Helper()
		var want int64
		for _, en := range e.GlobalHistory() {
			want += entrySize(en)
		}
		e.mu.RLock()
		for _, m := range e.managers {
			for _, en := range m.LocalHistory() {
				want += entrySize(en)
			}
		}
		e.mu.RUnlock()
		if got := e.HistoryBytes(); got != want {
			t.Fatalf("%s: HistoryBytes() = %d, rings hold %d", when, got, want)
		}
	}
	check("empty")
	// The second transaction wraps the local ring, the third the global.
	for i, n := range []int{5, localHistorySize + 4, globalHistorySize + 18} {
		tx := db.Begin()
		ping(t, db, tx, obj, n)
		check("mid-transaction")
		if i == 1 {
			_ = tx.Abort()
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		check("after hand-off")
	}
}

// A transaction that raised nothing leaves no engine state behind and
// hands nothing over.
func TestCommitWithoutEventsTouchesNoHistory(t *testing.T) {
	e, db, obj := historyEngine(t, Options{})
	tx := db.Begin()
	if _, err := db.Get(tx, obj, "val"); err != nil {
		t.Fatal(err)
	}
	if txnStateOf(tx) != nil {
		t.Fatal("read-only transaction carries engine state")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.GlobalHistory()); n != 0 {
		t.Fatalf("global history = %d entries, want 0", n)
	}
}

// Histories stay consistent under concurrent raisers on one hot key:
// four goroutines commit and abort their own transactions while a
// reader polls both read paths.
func TestHistoriesUnderConcurrentRaisers(t *testing.T) {
	const raisers, txns, pings = 4, 20, 60 // 4 800 occurrences: the global ring wraps
	e, db, _ := historyEngine(t, Options{})
	objs := make([]*oodb.Object, raisers)
	for i := range objs {
		objs[i] = newSensor(t, db)
	}
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		for {
			var last uint64
			for _, en := range e.GlobalHistory() {
				if en.Seq <= last {
					polled <- fmt.Errorf("global history out of Seq order: %d after %d", en.Seq, last)
					return
				}
				last = en.Seq
			}
			if n := e.HistoryBytes(); n < 0 {
				polled <- fmt.Errorf("HistoryBytes() = %d", n)
				return
			}
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, raisers)
	for _, obj := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx := db.Begin()
				for j := 0; j < pings; j++ {
					if _, err := db.Invoke(tx, obj, "ping", int64(j)); err != nil {
						errs <- err
						return
					}
				}
				end := tx.Commit
				if i%2 == 1 {
					end = tx.Abort
				}
				if err := end(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	global := e.GlobalHistory()
	if want := min(raisers*txns*pings, globalHistorySize); len(global) != want {
		t.Fatalf("global history = %d entries, want %d", len(global), want)
	}
	globalOf(t, e, 0) // checks Seq order
	want := int64(0)
	for _, en := range global {
		want += entrySize(en)
	}
	local := e.planFor(pingKey()).m.LocalHistory()
	if len(local) != localHistorySize {
		t.Fatalf("local history = %d entries, want %d", len(local), localHistorySize)
	}
	for _, en := range local {
		want += entrySize(en)
	}
	if got := e.HistoryBytes(); got != want {
		t.Fatalf("HistoryBytes() = %d, rings hold %d", got, want)
	}
}
