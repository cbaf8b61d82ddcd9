package eca

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/txn"
)

// A parallel- or exclusive-causal rule waits at commit for its trigger
// while it holds its locks. A trigger that then writes what the rule
// wrote closes a cycle through that wait; the deadlock search sees it
// and fails the rule, never the trigger. Each test waits under a 5 s
// deadline, advancing the virtual clock that retry backoffs and rule
// deadlines run on; past the deadline it resolves the trigger, so that
// the engine's cleanup cannot hang, and fails with every goroutine's
// stack.

// awaitAdvancing waits for done while advancing vc. After 5 s it runs
// rescue, waits up to 5 s more for done, and fails.
func awaitAdvancing(t *testing.T, vc *clock.Virtual, what string, done <-chan struct{}, rescue func()) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-done:
			return
		case <-deadline:
			buf := make([]byte, 1<<20)
			dump := buf[:runtime.Stack(buf, true)]
			rescue()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
			}
			t.Fatalf("%s did not finish within 5 s:\n%s", what, dump)
		case <-time.After(time.Millisecond):
			vc.Advance(10 * time.Millisecond)
		}
	}
}

// parkedInCommit reports whether some goroutine is blocked on a channel
// inside a transaction's Commit.
func parkedInCommit() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "txn.(*Txn).Commit(") {
			return true
		}
	}
	return false
}

// The trigger resets s1, which fires a causal rule that writes 7 to s2;
// once the rule has written, the trigger writes 9 to s2 and commits.
// The rule is the deadlock victim and retries once. Parallel-causal:
// the retry finds the trigger committed and writes 7. Exclusive-causal:
// the retry finds the trigger committed and is vetoed, so 9 stays.
// Neither is a failure of the rule.
func TestCausalRuleYieldsToItsTrigger(t *testing.T) {
	for _, c := range []struct {
		name string
		mode Coupling
		want int64
	}{
		{"parallel", DetachedParallelCausal, 7},
		{"exclusive", DetachedExclusiveCausal, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, db, vc := newTestEngine(t, Options{})
			s1, s2 := newSensor(t, db), newSensor(t, db)
			wrote := make(chan struct{}, 1)
			if err := e.AddRule(&Rule{Name: "causal", EventKey: resetKey(), ActionMode: c.mode,
				Action: func(rc *RuleCtx) error {
					if err := rc.Ctx().Set(s2, "val", int64(7)); err != nil {
						return err
					}
					select {
					case wrote <- struct{}{}:
					default:
					}
					return nil
				}}); err != nil {
				t.Fatal(err)
			}
			trig := db.Begin()
			if _, err := db.Invoke(trig, s1, "reset"); err != nil {
				t.Fatal(err)
			}
			select {
			case <-wrote:
			case <-time.After(5 * time.Second):
				_ = trig.Abort()
				t.Fatal("the causal rule never wrote s2")
			}
			done := make(chan struct{})
			var trigErr error
			go func() {
				defer close(done)
				if _, trigErr = db.Invoke(trig, s2, "ping", int64(9)); trigErr == nil {
					trigErr = trig.Commit()
				}
				e.WaitDetached()
			}()
			awaitAdvancing(t, vc, "the trigger writing what its causal rule wrote", done, func() { _ = trig.Abort() })
			if trigErr != nil || trig.Status() != txn.Committed {
				t.Fatalf("trigger %v (%v), want committed", trig.Status(), trigErr)
			}
			tx := db.Begin()
			got, err := db.Get(tx, s2, "val")
			_ = tx.Commit()
			if err != nil || got != c.want {
				t.Fatalf("s2 = %v (%v), want %d", got, err, c.want)
			}
			if n := e.met.retries.Value(); n != 1 {
				t.Fatalf("retries = %d, want 1", n)
			}
			if dl := e.DeadLetters(); len(dl) != 0 {
				t.Fatalf("dead letters %+v, want none", dl)
			}
		})
	}
}

// A parallel-causal rule past its deadline leaves its commit wait at
// once: it is dead-lettered "deadline" while its trigger is still open.
func TestCausalRuleDeadlineDoesNotWaitForTrigger(t *testing.T) {
	e, db, vc := newTestEngine(t, Options{})
	s1 := newSensor(t, db)
	if err := e.AddRule(&Rule{Name: "slow", EventKey: resetKey(), ActionMode: DetachedParallelCausal,
		Timeout: 50 * time.Millisecond, Action: func(*RuleCtx) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	trig := db.Begin()
	t.Cleanup(func() { _ = trig.Abort() })
	if _, err := db.Invoke(trig, s1, "reset"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !parkedInCommit(); {
		if time.Now().After(deadline) {
			t.Fatal("the rule never parked in its commit")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { e.WaitDetached(); close(done) }()
	awaitAdvancing(t, vc, "the rule past its deadline", done, func() { _ = trig.Abort() })
	if st := trig.Status(); st != txn.Active {
		t.Fatalf("trigger %v: the rule waited for it", st)
	}
	if dl := e.DeadLetters(); len(dl) != 1 || dl[0].Reason != "deadline" {
		t.Fatalf("dead letters %+v, want one for the deadline", dl)
	}
}
