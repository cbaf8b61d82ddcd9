package crash

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
)

// TestCrashMatrix is the crash-consistency matrix: every workload,
// crashed at every write/fsync boundary it generates (clean and
// WAL-torn), recovered once cleanly and once through a gauntlet of
// second crashes during recovery itself. See the package comment for
// the invariants.
func TestCrashMatrix(t *testing.T) {
	totalBoundaries, totalRecoveryCrashes := 0, 0
	for _, w := range Workloads() {
		for _, torn := range []bool{false, true} {
			name := w.Name + "/clean"
			if torn {
				name = w.Name + "/torn-wal"
			}
			w, torn := w, torn
			t.Run(name, func(t *testing.T) {
				st, err := RunMatrix(w, torn)
				if err != nil {
					t.Fatal(err)
				}
				if st.Boundaries < 10 {
					t.Fatalf("workload generated only %d write boundaries; the matrix is not exercising anything", st.Boundaries)
				}
				totalBoundaries += st.Boundaries
				totalRecoveryCrashes += st.RecoveryCrashes
				t.Logf("%s: %d crash boundaries, %d second crashes during recovery", name, st.Boundaries, st.RecoveryCrashes)
			})
		}
	}
	// Recovery is deliberately write-bounded (it appends and checkpoints
	// nothing), so individual workloads — especially small ones whose
	// pages fit the buffer pool — may recover with almost no writes to
	// crash in. Demand meaningful second-crash coverage across the whole
	// matrix rather than per workload.
	if totalRecoveryCrashes < 100 {
		t.Fatalf("only %d second crashes across %d boundaries; recovery idempotence barely exercised",
			totalRecoveryCrashes, totalBoundaries)
	}
}

// TestWorkloadsCompleteWithoutCrash pins the dry-run path: every
// scripted workload must run to completion on a healthy filesystem
// and leave exactly its committed records behind.
func TestWorkloadsCompleteWithoutCrash(t *testing.T) {
	for _, w := range Workloads() {
		fs := fault.NewShadowFS()
		res, err := run(fs, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.completed {
			t.Fatalf("%s: did not complete", w.Name)
		}
		if res.inDoubt != nil {
			t.Fatalf("%s: in-doubt commit without a crash", w.Name)
		}
		if err := verify(fs, res); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
}

// lyingFS is a disk whose fsync returns success without making
// anything durable.
type lyingFS struct{ fault.FS }

func (l lyingFS) OpenFile(path string) (fault.File, error) {
	f, err := l.FS.OpenFile(path)
	return lyingFile{f}, err
}

type lyingFile struct{ fault.File }

func (lyingFile) Sync() error { return nil }

// TestHarnessCatchesLostCommit is the harness's self-test: a store
// that loses a committed transaction must fail verification. We
// simulate the loss by committing on a lying disk, crashing, and
// asserting verify rejects the result when told the commit succeeded.
func TestHarnessCatchesLostCommit(t *testing.T) {
	fs := fault.NewShadowFS()
	opts := storeOptions(fs)
	opts.FS = lyingFS{fs} // deliberately break durability
	st, err := storage.Open(storeDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(1); err != nil {
		t.Fatal(err)
	}
	v := val(0, 1)
	if _, err := st.Insert(1, []byte(v)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(1); err != nil {
		t.Fatal(err)
	}
	// Crash before anything was forced; the "committed" record is gone.
	fs.Crash()
	res := &runResult{committed: map[int]string{0: v}}
	if err := verify(fs, res); err == nil {
		t.Fatal("verify accepted a lost committed transaction; the harness is toothless")
	}
}
