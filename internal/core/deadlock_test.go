package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// TestCrossClientRuleWritesDoNotWedge: two clients each fill their own
// tank while an immediate rule writes the other client's tank, so a
// client's top-level transaction and the other client's rule
// subtransaction wait on each other. Every such cycle must end in a
// retriable deadlock victim — under SequentialExec, and under
// ParallelExec where two such rules also race each other as siblings —
// and both clients must finish their operations.
func TestCrossClientRuleWritesDoNotWedge(t *testing.T) {
	const ops = 200
	for _, c := range []struct {
		name  string
		exec  eca.ExecStrategy
		rules int
	}{
		{"sequential", eca.SequentialExec, 1},
		{"parallel", eca.ParallelExec, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, err := Open(Options{Engine: eca.Options{Exec: c.exec}})
			if err != nil {
				t.Fatal(err)
			}
			tank := oodb.NewClass("Tank", oodb.Attr{Name: "level", Type: oodb.TInt})
			tank.Monitored = true
			tank.Method("fill", func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
				return nil, ctx.Set(self, "level", int64(1))
			})
			if err := sys.RegisterClass(tank); err != nil {
				t.Fatal(err)
			}
			setup := sys.Begin()
			a, err := sys.DB.NewObject(setup, "Tank")
			if err != nil {
				t.Fatal(err)
			}
			b, err := sys.DB.NewObject(setup, "Tank")
			if err != nil {
				t.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			other := map[oodb.OID]*oodb.Object{a.OID(): b, b.OID(): a}
			for r := 0; r < c.rules; r++ {
				if err := sys.Engine.AddRule(&eca.Rule{
					Name:       fmt.Sprintf("cross-%d", r),
					ActionMode: eca.Immediate,
					EventKey:   event.MethodSpec{Class: "Tank", Method: "fill", When: event.After}.Key(),
					Action: func(rc *eca.RuleCtx) error {
						return rc.Ctx().Set(other[oodb.OID(rc.Trigger.OID)], "level", int64(2+r))
					},
				}); err != nil {
					t.Fatal(err)
				}
			}

			var victims atomic.Int64
			done := make(chan error, 2)
			for _, obj := range []*oodb.Object{a, b} {
				go func(obj *oodb.Object) {
					for committed := 0; committed < ops; {
						tx, err := sys.BeginTxn()
						if err != nil {
							done <- err
							return
						}
						if _, err = sys.DB.Invoke(tx, obj, "fill"); err == nil {
							err = tx.Commit()
						} else {
							_ = tx.Abort() // the invoke's error is the one that matters
						}
						switch {
						case err == nil:
							committed++
						case txn.IsRetriable(err):
							victims.Add(1)
						default:
							done <- fmt.Errorf("client on tank %d: %w", obj.OID(), err)
							return
						}
					}
					done <- nil
				}(obj)
			}
			deadline := time.After(20 * time.Second)
			for i := 0; i < 2; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					buf := make([]byte, 1<<20)
					t.Fatalf("clients wedged: no commit and no ErrDeadlock within 20s\n%s", buf[:runtime.Stack(buf, true)])
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d operations per client, %d deadlock victims", ops, victims.Load())
		})
	}
}
