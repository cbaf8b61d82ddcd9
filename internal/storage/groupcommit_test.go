package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// slowSyncFS models a disk whose fsync has real latency, so committers
// overlap the leader's round instead of racing through a free fsync —
// on a test tmpfs the sync is too fast for batches to ever form.
type slowSyncFS struct {
	fault.FS
	delay time.Duration
}

func (s slowSyncFS) OpenFile(path string) (fault.File, error) {
	f, err := s.FS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

type slowSyncFile struct {
	fault.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestGroupCommitSubLinearFsyncs releases N committers at once and
// asserts the WAL issued far fewer than N fsyncs: followers that
// arrive while the leader's fsync is in flight share its (or the next
// round's) barrier instead of forcing their own.
func TestGroupCommitSubLinearFsyncs(t *testing.T) {
	s, _ := openTestStore(t, Options{FS: slowSyncFS{fault.OS{}, 2 * time.Millisecond}})
	defer s.Close()
	const n = 64
	base := s.Stats().WALSyncs
	start := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		txn := uint64(i + 1)
		if err := s.Begin(txn); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(txn, []byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = s.Commit(txn)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	syncs := s.Stats().WALSyncs - base
	if syncs == 0 {
		t.Fatal("no fsyncs recorded for durable commits")
	}
	if syncs > n/2 {
		t.Fatalf("WAL syncs = %d for %d concurrent commits; group commit should batch (want <= %d)", syncs, n, n/2)
	}
	// Each batch is released by a leader's round after its fsync.
	st := s.Stats()
	if st.GroupCommitBatches == 0 || st.GroupCommitBatches > syncs ||
		st.GroupBatchHighwater < 1 || st.GroupBatchHighwater >= n {
		t.Fatalf("group commit released %d batches, the largest of %d followers, over %d fsyncs; want 1..%d batches of 1..%d",
			st.GroupCommitBatches, st.GroupBatchHighwater, syncs, syncs, n-1)
	}
	t.Logf("%d concurrent commits -> %d fsyncs", n, syncs)
}

// TestAbortStillSyncsWhenSyncOnCommit guards the abort path: an abort
// that wrote CLRs must be forced like a commit, so recovery sees the
// compensation records.
func TestAbortStillSyncsWhenSyncOnCommit(t *testing.T) {
	s, _ := openTestStore(t, Options{})
	defer s.Close()
	base := s.Stats().WALSyncs
	if err := s.Begin(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(1, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Abort(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALSyncs - base; got == 0 {
		t.Fatal("abort that wrote CLRs issued no fsync")
	}
}
