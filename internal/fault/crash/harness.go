// Package crash is the crash-consistency harness for the storage
// manager: it runs scripted workloads against a store opened on a
// fault.ShadowFS, simulates a machine crash at every write/fsync
// boundary the workload generates, reopens the store, and verifies
// the recovery invariants —
//
//  1. durability: every transaction whose Commit returned nil is
//     fully readable after recovery;
//  2. atomicity: no effect of an uncommitted transaction is visible,
//     and a transaction whose Commit was interrupted (in doubt) is
//     either fully present or fully absent;
//  3. idempotence: a second crash in the middle of recovery itself,
//     followed by another recovery, yields the same state.
//
// The harness is deliberately ignorant of the store's internals: it
// tracks the expected logical state purely from the return values of
// the operations it issued, and verifies by scanning records.
package crash

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/storage"
)

// StepKind enumerates workload operations.
type StepKind int

// Workload step kinds.
const (
	OpBegin StepKind = iota + 1
	OpInsert
	OpUpdate
	OpDelete
	OpCommit
	OpAbort
	OpCheckpoint
)

// Step is one scripted operation. Txn identifies the storage-level
// transaction; Key names a logical record (the harness tracks the
// record's RID and generates a unique payload per version).
type Step struct {
	Kind StepKind
	Txn  uint64
	Key  int
}

// Workload is a named, deterministic step script.
type Workload struct {
	Name  string
	Steps []Step
}

// payloadPad sizes records so a workload spans several pages and the
// small buffer pool the harness uses is forced to evict: ~1.2 KiB
// records put six to a page, so a dozen live records overflow the
// four-frame pool.
const payloadPad = 1200

// storeDir is the directory key the harness opens stores under on
// the shadow filesystem.
const storeDir = "crashdb"

// val builds the unique payload for version ver of logical record
// key. The key is parseable back out of the payload, so the harness
// can re-derive RIDs by scanning.
func val(key, ver int) string {
	return fmt.Sprintf("k%03d.v%03d.", key, ver) + strings.Repeat("x", payloadPad)
}

func keyOf(payload string) (int, bool) {
	var key, ver int
	if _, err := fmt.Sscanf(payload, "k%03d.v%03d.", &key, &ver); err != nil {
		return 0, false
	}
	return key, true
}

// runResult is what one (possibly crash-interrupted) execution of a
// workload promises about the post-recovery state.
type runResult struct {
	// committed maps key -> payload for every transaction whose
	// Commit returned nil.
	committed map[int]string
	// inDoubt, when non-nil, is the overlay (key -> payload, nil =
	// delete) of the one transaction whose Commit was interrupted:
	// recovery may surface either the base state or base+overlay.
	inDoubt map[int]*string
	// completed is true when every step ran without hitting the
	// scheduled crash.
	completed bool
}

// allowedStates returns the sorted payload multisets recovery may
// legally surface.
func (r *runResult) allowedStates() [][]string {
	base := make([]string, 0, len(r.committed))
	for _, v := range r.committed {
		base = append(base, v)
	}
	sort.Strings(base)
	out := [][]string{base}
	if r.inDoubt != nil {
		m := make(map[int]string, len(r.committed))
		for k, v := range r.committed {
			m[k] = v
		}
		for k, v := range r.inDoubt {
			if v == nil {
				delete(m, k)
			} else {
				m[k] = *v
			}
		}
		alt := make([]string, 0, len(m))
		for _, v := range m {
			alt = append(alt, v)
		}
		sort.Strings(alt)
		out = append(out, alt)
	}
	return out
}

// executor drives one run of a workload against a store on fs.
type executor struct {
	fs    *fault.ShadowFS
	store *storage.Store
	rids  map[int]storage.RID
	vers  map[int]int
	// overlays holds each active transaction's pending effects.
	overlays map[uint64]map[int]*string
	res      runResult
}

func storeOptions(fs *fault.ShadowFS) storage.Options {
	return storage.Options{
		FS:              fs,
		BufferPoolPages: 4, // tiny pool: every run exercises eviction writes
		// Tiny segments: every workload rotates the log several times,
		// so the matrix crashes inside rotation and pruning too.
		WALSegmentBytes: 4096,
	}
}

// run executes w's steps against a fresh store on fs, stopping at the
// scheduled crash (if fs hits one). It reports what the run promises
// about post-recovery state, or an error for failures that are not
// the simulated crash.
func run(fs *fault.ShadowFS, w Workload) (*runResult, error) {
	ex := &executor{
		fs:       fs,
		rids:     make(map[int]storage.RID),
		vers:     make(map[int]int),
		overlays: make(map[uint64]map[int]*string),
	}
	ex.res.committed = make(map[int]string)
	st, err := storage.Open(storeDir, storeOptions(fs))
	if err != nil {
		if fs.Crashed() {
			return &ex.res, nil
		}
		return nil, fmt.Errorf("open: %w", err)
	}
	ex.store = st
	for i, step := range w.Steps {
		if err := ex.apply(step); err != nil {
			if fs.Crashed() {
				// The machine died mid-step; the store object is
				// abandoned, never closed — exactly like a real crash.
				return &ex.res, nil
			}
			return nil, fmt.Errorf("step %d (%+v): %w", i, step, err)
		}
	}
	ex.res.completed = true
	if fs.Crashed() {
		return &ex.res, nil
	}
	if err := st.Close(); err != nil {
		if fs.Crashed() {
			return &ex.res, nil
		}
		return nil, fmt.Errorf("close: %w", err)
	}
	return &ex.res, nil
}

func (ex *executor) overlay(txn uint64) map[int]*string {
	ov, ok := ex.overlays[txn]
	if !ok {
		ov = make(map[int]*string)
		ex.overlays[txn] = ov
	}
	return ov
}

func (ex *executor) apply(s Step) error {
	switch s.Kind {
	case OpBegin:
		return ex.store.Begin(s.Txn)
	case OpInsert:
		ex.vers[s.Key]++
		v := val(s.Key, ex.vers[s.Key])
		rid, err := ex.store.Insert(s.Txn, []byte(v))
		if err != nil {
			return err
		}
		ex.rids[s.Key] = rid
		ex.overlay(s.Txn)[s.Key] = &v
		return nil
	case OpUpdate:
		rid, ok := ex.rids[s.Key]
		if !ok {
			return fmt.Errorf("workload bug: update of unknown key %d", s.Key)
		}
		ex.vers[s.Key]++
		v := val(s.Key, ex.vers[s.Key])
		newRID, err := ex.store.Update(s.Txn, rid, []byte(v))
		if err != nil {
			return err
		}
		ex.rids[s.Key] = newRID
		ex.overlay(s.Txn)[s.Key] = &v
		return nil
	case OpDelete:
		rid, ok := ex.rids[s.Key]
		if !ok {
			return fmt.Errorf("workload bug: delete of unknown key %d", s.Key)
		}
		if err := ex.store.Delete(s.Txn, rid); err != nil {
			return err
		}
		delete(ex.rids, s.Key)
		ex.overlay(s.Txn)[s.Key] = nil
		return nil
	case OpCommit:
		err := ex.store.Commit(s.Txn)
		ov := ex.overlays[s.Txn]
		delete(ex.overlays, s.Txn)
		if err != nil {
			if ex.fs.Crashed() || errors.Is(err, storage.ErrInDoubt) {
				// The commit record was appended but never safely
				// forced: recovery may land either way.
				ex.res.inDoubt = ov
			}
			return err
		}
		for k, v := range ov {
			if v == nil {
				delete(ex.res.committed, k)
			} else {
				ex.res.committed[k] = *v
			}
		}
		return nil
	case OpAbort:
		_, err := ex.store.Abort(s.Txn)
		delete(ex.overlays, s.Txn)
		if err != nil {
			return err
		}
		// Aborted updates and deletes may have relocated records; the
		// returned old->new map only covers this abort, so re-derive
		// every key's RID from a scan of the live store.
		return ex.rescanRIDs()
	case OpCheckpoint:
		return ex.store.Checkpoint()
	}
	return fmt.Errorf("workload bug: unknown step kind %d", s.Kind)
}

func (ex *executor) rescanRIDs() error {
	rids := make(map[int]storage.RID)
	err := ex.store.Scan(func(rid storage.RID, data []byte) {
		if key, ok := keyOf(string(data)); ok {
			rids[key] = rid
		}
	})
	if err != nil {
		return err
	}
	ex.rids = rids
	return nil
}

// verify reopens the store on fs (running recovery) and checks the
// surviving records against the run's allowed states.
func verify(fs *fault.ShadowFS, res *runResult) error {
	st, err := storage.Open(storeDir, storeOptions(fs))
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	defer st.Close()
	var got []string
	if err := st.Scan(func(_ storage.RID, data []byte) {
		got = append(got, string(data))
	}); err != nil {
		return fmt.Errorf("post-recovery scan: %w", err)
	}
	sort.Strings(got)
	allowed := res.allowedStates()
	for _, want := range allowed {
		if equalStrings(got, want) {
			return nil
		}
	}
	return fmt.Errorf("post-recovery state (%d records) matches none of the %d allowed states:\n got:  %v\n want: %v",
		len(got), len(allowed), brief(got), brief(allowed[0]))
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// brief shortens payloads to their parseable key.version prefix for
// error messages.
func brief(vals []string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		if len(v) > 10 {
			v = v[:10]
		}
		out[i] = v
	}
	return out
}

// maxRecoveryProbes bounds the second-crash sweep during recovery; a
// recovery that issues more write operations than this is a bug.
const maxRecoveryProbes = 10000

// Stats summarizes one workload's trip through the matrix.
type Stats struct {
	// Boundaries is the number of write/fsync boundaries the workload
	// generates — the number of crash points simulated.
	Boundaries int
	// RecoveryCrashes is the total number of second crashes injected
	// during recovery across all boundaries.
	RecoveryCrashes int
}

// RunMatrix runs w once to completion to count its write boundaries,
// then for every boundary i: replays w on a fresh shadow filesystem,
// crashes at boundary i, and checks the recovery invariants twice —
// once reopening cleanly, and once crashing repeatedly during
// recovery itself (a second crash at every recovery write boundary)
// before the final reopen. With torn=true the crashing write of the
// WAL additionally tears, leaving a half-written frame on disk for
// the CRC scan to reject.
func RunMatrix(w Workload, torn bool) (Stats, error) {
	var st Stats
	tornPath := ""
	if torn {
		tornPath = "wal.log"
	}

	// Dry run: count boundaries and sanity-check the script.
	fs := fault.NewShadowFS()
	res, err := run(fs, w)
	if err != nil {
		return st, fmt.Errorf("%s: dry run: %w", w.Name, err)
	}
	if !res.completed {
		return st, fmt.Errorf("%s: dry run did not complete", w.Name)
	}
	st.Boundaries = fs.WriteOps()

	for i := 0; i < st.Boundaries; i++ {
		fs := fault.NewShadowFS()
		fs.CrashAfter(i, tornPath)
		res, err := run(fs, w)
		if err != nil {
			return st, fmt.Errorf("%s: boundary %d: %w", w.Name, i, err)
		}
		fs.Crash()

		// Invariant check 1: plain crash, recover, verify.
		clean := fs.Clone()
		if err := verify(clean, res); err != nil {
			return st, fmt.Errorf("%s: boundary %d: %w", w.Name, i, err)
		}

		// Invariant check 2: recovery itself is interrupted by a
		// second crash at each of its own write boundaries; recovery
		// after recovery must converge to the same allowed states.
		for j := 0; ; j++ {
			if j > maxRecoveryProbes {
				return st, fmt.Errorf("%s: boundary %d: recovery never completed within %d probes", w.Name, i, maxRecoveryProbes)
			}
			fs.CrashAfter(j, tornPath)
			s2, err := storage.Open(storeDir, storeOptions(fs))
			if err == nil {
				// Recovery ran to completion without reaching the
				// scheduled crash; disarm it and verify.
				fs.CrashAfter(-1, "")
				if cerr := s2.Close(); cerr != nil {
					return st, fmt.Errorf("%s: boundary %d: close after recovery: %w", w.Name, i, cerr)
				}
				if err := verify(fs, res); err != nil {
					return st, fmt.Errorf("%s: boundary %d after %d recovery crashes: %w", w.Name, i, j, err)
				}
				break
			}
			if !fs.Crashed() {
				return st, fmt.Errorf("%s: boundary %d, recovery probe %d: %w", w.Name, i, j, err)
			}
			st.RecoveryCrashes++
			fs.Crash()
		}
	}
	return st, nil
}

// Workloads returns the harness's scripted workloads: serial commits
// with updates and deletes, interleaved transactions with an abort,
// and a churn script that checkpoints mid-stream and relocates
// records across pages.
func Workloads() []Workload {
	b := func(t uint64) Step { return Step{Kind: OpBegin, Txn: t} }
	ins := func(t uint64, k int) Step { return Step{Kind: OpInsert, Txn: t, Key: k} }
	upd := func(t uint64, k int) Step { return Step{Kind: OpUpdate, Txn: t, Key: k} }
	del := func(t uint64, k int) Step { return Step{Kind: OpDelete, Txn: t, Key: k} }
	commit := func(t uint64) Step { return Step{Kind: OpCommit, Txn: t} }
	abort := func(t uint64) Step { return Step{Kind: OpAbort, Txn: t} }
	ckpt := Step{Kind: OpCheckpoint}

	serial := Workload{Name: "serial-commits"}
	for t := uint64(1); t <= 3; t++ {
		serial.Steps = append(serial.Steps, b(t))
		base := int(t-1) * 8
		for k := base; k < base+8; k++ {
			serial.Steps = append(serial.Steps, ins(t, k))
		}
		serial.Steps = append(serial.Steps, upd(t, base), upd(t, base+1), del(t, base+2), commit(t))
	}
	serial.Steps = append(serial.Steps,
		b(4), upd(4, 0), upd(4, 8), del(4, 16), ins(4, 30), commit(4))

	interleaved := Workload{Name: "interleaved-abort", Steps: []Step{
		b(1), ins(1, 0), ins(1, 1),
		b(2), ins(2, 10), ins(2, 11),
		upd(1, 0), upd(2, 10),
		commit(1),
		b(3), ins(3, 20), upd(3, 1), del(3, 0),
		abort(2), // its keys 10, 11 must never surface
		commit(3),
		b(4), ins(4, 10), commit(4), // reuse an aborted key
	}}

	churn := Workload{Name: "checkpoint-churn"}
	churn.Steps = append(churn.Steps, b(1))
	for k := 0; k < 12; k++ {
		churn.Steps = append(churn.Steps, ins(1, k))
	}
	churn.Steps = append(churn.Steps, commit(1), ckpt, b(2))
	for k := 0; k < 12; k += 2 {
		churn.Steps = append(churn.Steps, upd(2, k))
	}
	churn.Steps = append(churn.Steps, del(2, 1), del(2, 3), commit(2),
		b(3), ins(3, 40), upd(3, 0), abort(3),
		ckpt,
		b(4), ins(4, 41), upd(4, 2), commit(4))

	// Fuzzy checkpoints with a transaction held open throughout: the
	// old checkpoint refused while any transaction was active, so this
	// script pins the starvation fix and the ATT/redoLSN bookkeeping —
	// txn 1's records span every checkpoint and its fate (commit near
	// the end) must survive crashes inside any of them.
	fuzzy := Workload{Name: "fuzzy-held-txn", Steps: []Step{
		b(1), ins(1, 0), ins(1, 1), ins(1, 2),
		b(2), ins(2, 10), commit(2),
		ckpt, // txn 1 active
		upd(1, 0),
		b(3), ins(3, 11), upd(3, 10), commit(3),
		ckpt, // txn 1 still active, spanning two checkpoints
		del(1, 1), commit(1),
		ckpt,
		b(4), ins(4, 20), commit(4),
	}}

	return []Workload{serial, interleaved, churn, fuzzy}
}
