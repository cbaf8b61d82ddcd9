package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fault"
)

// commitOne runs a single-insert transaction and returns its RID.
func commitOne(t *testing.T, s *Store, txn uint64, payload string) RID {
	t.Helper()
	if err := s.Begin(txn); err != nil {
		t.Fatal(err)
	}
	rid, err := s.Insert(txn, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(txn); err != nil {
		t.Fatal(err)
	}
	return rid
}

// TestCheckpointFailureSitesRecoverable injects an I/O failure at
// every write boundary the checkpoint protocol owns — segment
// rotation, the WAL fsync, the data-file fsync, the master record
// write, and segment pruning. At each site the checkpoint must fail
// without poisoning the store, a retry must succeed, and a crash
// after the whole dance must still recover every committed record.
func TestCheckpointFailureSitesRecoverable(t *testing.T) {
	sites := []string{
		fault.SiteWALRotate,
		fault.SiteWALSync,
		fault.SitePagerSync,
		fault.SiteCkptMaster,
		fault.SiteWALPrune,
	}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			defer fault.DisarmAll()
			fs := fault.NewShadowFS()
			s, err := Open("db", Options{FS: fs, BufferPoolPages: 4, WALSegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			var rids []RID
			var vals []string
			for i := 0; i < 4; i++ {
				v := fmt.Sprintf("pre-%s-%d", site, i)
				rids = append(rids, commitOne(t, s, uint64(i+1), v))
				vals = append(vals, v)
			}
			if err := fault.Arm(site, "error-once"); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Checkpoint with %s failing = %v, want injected error", site, err)
			}
			if h := s.CheckpointHealth(); h.Failures != 1 || h.Degraded {
				t.Fatalf("health after one failure = %+v", h)
			}
			// A checkpoint failure never poisons: normal traffic and the
			// retry both proceed.
			v := "post-" + site
			rids = append(rids, commitOne(t, s, 100, v))
			vals = append(vals, v)
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint retry after %s failure: %v", site, err)
			}
			if h := s.CheckpointHealth(); h.Checkpoints == 0 || h.ConsecutiveFailures != 0 {
				t.Fatalf("health after successful retry = %+v", h)
			}
			// Crash and recover: every committed record survives.
			fs.Crash()
			s2, err := Open("db", Options{FS: fs, BufferPoolPages: 4, WALSegmentBytes: 512})
			if err != nil {
				t.Fatalf("recovery open after %s failure run: %v", site, err)
			}
			defer s2.Close()
			for i, rid := range rids {
				got, err := s2.Get(rid)
				if err != nil || !bytes.Equal(got, []byte(vals[i])) {
					t.Fatalf("Get(%d) after recovery = %q, %v; want %q", i, got, err, vals[i])
				}
			}
		})
	}
}

// TestCheckpointRepeatedFailureDegrades pins the health protocol:
// checkpointDegradedAfter consecutive failures flip the store to
// degraded, and one success clears the streak and the flag.
func TestCheckpointRepeatedFailureDegrades(t *testing.T) {
	defer fault.DisarmAll()
	fs := fault.NewShadowFS()
	s, err := Open("db", Options{
		FS: fs, BufferPoolPages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commitOne(t, s, 1, "payload")
	if err := fault.Arm(fault.SiteCkptMaster, "error"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < checkpointDegradedAfter; i++ {
		if err := s.Checkpoint(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Checkpoint %d = %v, want injected error", i, err)
		}
	}
	h := s.CheckpointHealth()
	if !h.Degraded || h.ConsecutiveFailures != checkpointDegradedAfter || h.LastError == "" {
		t.Fatalf("health after %d failures = %+v, want degraded", checkpointDegradedAfter, h)
	}
	if st := s.Stats(); !st.CheckpointDegraded {
		t.Fatal("Stats does not surface degraded checkpointing")
	}
	fault.DisarmAll()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h = s.CheckpointHealth()
	if h.Degraded || h.ConsecutiveFailures != 0 || h.LastError != "" {
		t.Fatalf("health after recovery checkpoint = %+v, want healthy", h)
	}
}

// TestWALGrowthBoundedUnderCheckpoints is the log-reclamation bound:
// with regular checkpoints the segment chain must stay at a small
// constant length no matter how much history flows through it.
func TestWALGrowthBoundedUnderCheckpoints(t *testing.T) {
	fs := fault.NewShadowFS()
	s, err := Open("db", Options{FS: fs, BufferPoolPages: 4, WALSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	maxSegs := 0
	for round := 0; round < 30; round++ {
		txn := uint64(round + 1)
		if err := s.Begin(txn); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := s.Insert(txn, bytes.Repeat([]byte{'x'}, 200)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(txn); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().WALSegments; n > maxSegs {
			maxSegs = n
		}
	}
	st := s.Stats()
	if st.WALRotations < 10 || st.WALPrunes < 10 {
		t.Fatalf("rotation/pruning barely exercised: %d rotations, %d prunes", st.WALRotations, st.WALPrunes)
	}
	// Each checkpoint prunes everything before its redoLSN, so the
	// chain never holds more than the current window plus the sealed
	// predecessor or two.
	if maxSegs > 4 {
		t.Fatalf("segment chain grew to %d segments despite per-round checkpoints", maxSegs)
	}
	if st.WALSegmentBytes > 8*1024 {
		t.Fatalf("WAL holds %d bytes despite per-round checkpoints", st.WALSegmentBytes)
	}
}

// waitForCheckpoints polls until the store has taken at least n
// checkpoints, advancing the virtual clock each round so age-based
// wakeups fire regardless of when the background loop armed its timer.
func waitForCheckpoints(t *testing.T, s *Store, vc *clock.Virtual, advance time.Duration, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.CheckpointHealth().Checkpoints >= n {
			return
		}
		if vc != nil {
			vc.Advance(advance)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("background checkpointer took %d checkpoints, want >= %d",
		s.CheckpointHealth().Checkpoints, n)
}

// TestBackgroundCheckpointerByteTrigger: once the log grows past
// WALBytes since the last checkpoint, the background goroutine runs
// one without any clock movement.
func TestBackgroundCheckpointerByteTrigger(t *testing.T) {
	vc := clock.NewVirtual(time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC))
	fs := fault.NewShadowFS()
	s, err := Open("db", Options{
		FS: fs, BufferPoolPages: 4, WALSegmentBytes: 1024,
		Checkpoint: CheckpointOptions{
			Auto: true, WALBytes: 2048, Interval: time.Hour, Clock: vc,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Begin(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(uint64(i+1), bytes.Repeat([]byte{'b'}, 400)); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(uint64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitForCheckpoints(t, s, nil, 0, 1)
}

// TestBackgroundCheckpointerAgeTrigger: with the byte trigger out of
// reach, advancing the virtual clock past Interval still produces a
// checkpoint.
func TestBackgroundCheckpointerAgeTrigger(t *testing.T) {
	vc := clock.NewVirtual(time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC))
	fs := fault.NewShadowFS()
	s, err := Open("db", Options{
		FS: fs, BufferPoolPages: 4,
		Checkpoint: CheckpointOptions{
			Auto: true, WALBytes: 1 << 30, Interval: 30 * time.Second, Clock: vc,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commitOne(t, s, 1, "aged")
	waitForCheckpoints(t, s, vc, 31*time.Second, 1)
}

// TestRecoveryWindowBounded verifies restart cost tracks the distance
// to the last completed checkpoint, not total history: after a long
// committed prefix and a checkpoint, a crash replays only the tail.
func TestRecoveryWindowBounded(t *testing.T) {
	fs := fault.NewShadowFS()
	s, err := Open("db", Options{FS: fs, BufferPoolPages: 4, WALSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 40; i++ {
		rids = append(rids, commitOne(t, s, uint64(i+1), fmt.Sprintf("bulk-%02d", i)))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rids = append(rids, commitOne(t, s, uint64(100+i), fmt.Sprintf("tail-%d", i)))
	}
	fs.Crash()

	s2, err := Open("db", Options{FS: fs, BufferPoolPages: 4, WALSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	// 40 bulk transactions are ~120 records; the bounded scan reads
	// only the checkpoint pair plus the 3-transaction tail.
	if st.RecoveryRecordsScanned == 0 || st.RecoveryRecordsScanned > 20 {
		t.Fatalf("recovery scanned %d records; want a small post-checkpoint tail", st.RecoveryRecordsScanned)
	}
	if st.RecoveryRecordsReplayed > st.RecoveryRecordsScanned {
		t.Fatalf("replayed %d > scanned %d", st.RecoveryRecordsReplayed, st.RecoveryRecordsScanned)
	}
	for i, rid := range rids {
		if _, err := s2.Get(rid); err != nil {
			t.Fatalf("record %d lost after bounded recovery: %v", i, err)
		}
	}
}
