package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/algebra"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
)

const (
	compositeAlarmEvery = 4    // every 4th writing transaction also raises alarm
	compositeGCEvery    = 1000 // client 0 calls GCExpired every 1000 operations
)

// compositeWorkload is plant-composite. Event keys are per client (class
// River_<client>), so what a composer sees does not depend on how the two
// clients interleave. A transaction is three update calls, every fourth
// one also an alarm:
//
//   - tri_<c> = seq(update;update;update), chronicle, transaction scope,
//     with a deferred rule: one detection per transaction, fired at EOT;
//   - pair_<c> = seq(update;alarm), recent, global scope, validity 1 s,
//     with a detached rule: eleven of twelve initiators are overwritten
//     and never complete;
//   - a detached rule on alarm itself.
//
// Composers, the asynchronous composition queues, the detached executor
// and the sharded histories do the work. Only the alarm journal is
// persistent.
type compositeWorkload struct {
	p       *plant
	river   [numClients]*oodb.Object
	journal [numClients]*oodb.Object
	ops     [numClients][]compositeOp
	writes  [numClients]int // writing transactions scripted so far (alarm cadence)
	model   [numClients]compositeModel
}

type compositeOp struct {
	x     [3]int8
	read  bool
	alarm bool
}

type compositeModel struct {
	level          int64
	writes, alarms int64
}

func (w *compositeWorkload) roundOps() int { return 9000 }

func (w *compositeWorkload) classes() []*oodb.Class {
	var out []*oodb.Class
	for c := 0; c < numClients; c++ {
		c := c
		river := oodb.NewClass(fmt.Sprintf("River_%d", c), oodb.Attr{Name: "level", Type: oodb.TInt})
		river.Monitored = true
		river.Method("update", traceMethod(func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
			return nil, ctx.Set(self, "level", args[0])
		}))
		river.Method("alarm", traceMethod(func(ctx *oodb.Ctx, _ *oodb.Object, _ []any) (any, error) {
			j := w.journal[c]
			n, err := ctx.GetInt(j, "alarms")
			if err != nil {
				return nil, err
			}
			return nil, ctx.Set(j, "alarms", n+1)
		}))
		out = append(out, river,
			oodb.NewClass(fmt.Sprintf("Journal_%d", c), oodb.Attr{Name: "alarms", Type: oodb.TInt}))
	}
	return out
}

func (w *compositeWorkload) install(p *plant) error {
	w.p = p
	sys := p.sys
	for _, cl := range w.classes() {
		if err := sys.RegisterClass(cl); err != nil {
			return err
		}
	}
	t := sys.Begin()
	for c := 0; c < numClients; c++ {
		var err error
		if w.river[c], err = sys.DB.NewObject(t, fmt.Sprintf("River_%d", c)); err != nil {
			return err
		}
		if w.journal[c], err = sys.DB.NewObject(t, fmt.Sprintf("Journal_%d", c)); err != nil {
			return err
		}
		if err := sys.DB.SetRoot(t, fmt.Sprintf("journal_%d", c), w.journal[c]); err != nil {
			return err
		}
	}
	if err := t.Commit(); err != nil {
		return err
	}
	for c := 0; c < numClients; c++ {
		if err := w.installRules(c); err != nil {
			return err
		}
	}
	return nil
}

func (w *compositeWorkload) installRules(c int) error {
	engine := w.p.sys.Engine
	cli := w.p.clients[c]
	class := fmt.Sprintf("River_%d", c)
	update := event.MethodSpec{Class: class, Method: "update", When: event.After}.Key()
	alarm := event.MethodSpec{Class: class, Method: "alarm", When: event.After}.Key()
	tri := &algebra.Composite{
		Name:   fmt.Sprintf("tri_%d", c),
		Expr:   algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: update}, algebra.Prim{Key: update}, algebra.Prim{Key: update}}},
		Policy: algebra.Chronicle,
		Scope:  algebra.ScopeTransaction,
	}
	pair := &algebra.Composite{
		Name:     fmt.Sprintf("pair_%d", c),
		Expr:     algebra.Seq{Exprs: []algebra.Expr{algebra.Prim{Key: update}, algebra.Prim{Key: alarm}}},
		Policy:   algebra.Recent,
		Scope:    algebra.ScopeGlobal,
		Validity: time.Second,
	}
	for _, comp := range []*algebra.Composite{tri, pair} {
		if err := engine.DefineComposite(comp); err != nil {
			return err
		}
	}
	// The stamp is the last argument of the last contributing event.
	lastStamp := func(in *event.Instance) any {
		for len(in.Parts) > 0 {
			in = in.Parts[len(in.Parts)-1]
		}
		return in.Args[len(in.Args)-1]
	}
	rules := []*eca.Rule{
		traceRule(&eca.Rule{Name: fmt.Sprintf("Trend_%d", c), EventKey: tri.Key(), ActionMode: eca.Deferred,
			Action: func(rc *eca.RuleCtx) error {
				cli.reacted(pathDefer, lastStamp(rc.Trigger))
				return nil
			}}, spanGoBody),
		{Name: fmt.Sprintf("Escalate_%d", c), EventKey: pair.Key(), ActionMode: eca.Detached,
			Action: func(rc *eca.RuleCtx) error {
				cli.reacted(pathCompose, lastStamp(rc.Trigger))
				return nil
			}},
		{Name: fmt.Sprintf("Page_%d", c), EventKey: alarm, ActionMode: eca.Detached,
			Action: func(rc *eca.RuleCtx) error {
				cli.reacted(pathDetach, lastStamp(rc.Trigger))
				return nil
			}},
	}
	for _, r := range rules {
		if err := engine.AddRule(r); err != nil {
			return err
		}
	}
	return nil
}

func (w *compositeWorkload) script(rng *rand.Rand, n int) {
	for c := range w.ops {
		ops := make([]compositeOp, n)
		for b := 0; b+8 <= n; b += 8 {
			ops[b+rng.Intn(8)].read = true
		}
		for i := range ops {
			op := &ops[i]
			if op.read {
				continue
			}
			for k := range op.x {
				op.x[k] = int8(rng.Intn(100))
			}
			w.writes[c]++
			op.alarm = w.writes[c]%compositeAlarmEvery == 0
		}
		w.ops[c] = ops
	}
}

func (w *compositeWorkload) do(c *client, i int) (int, error) {
	op := &w.ops[c.id][i]
	river := w.river[c.id]
	if c.id == 0 && i%compositeGCEvery == compositeGCEvery-1 {
		c.p.sys.Engine.GCExpired()
	}
	t, err := c.begin()
	if err != nil {
		return 0, err
	}
	if op.read {
		c.access()
		_, err = c.p.sys.DB.Get(t, river, "level")
		c.accessDone()
		if err != nil {
			return kindRead, c.fail(t, err)
		}
		return kindRead, c.commit(t)
	}
	for _, x := range op.x {
		if _, err := c.invoke(t, river, "update", int64(x), nowNS()); err != nil {
			return kindWrite, c.fail(t, err)
		}
	}
	if op.alarm {
		if _, err := c.invoke(t, river, "alarm", nowNS()); err != nil {
			return kindWrite, c.fail(t, err)
		}
	}
	return kindWrite, c.commit(t)
}

func (w *compositeWorkload) settle(failed [][]int) {
	for c := range w.ops {
		m := &w.model[c]
		skip := failedSet(failed[c])
		for i, op := range w.ops[c] {
			if op.read || skip[i] {
				continue
			}
			m.writes++
			m.level = int64(op.x[2])
			if op.alarm {
				m.alarms++
			}
		}
	}
}

func (w *compositeWorkload) verify(p *plant) error {
	db := p.sys.DB
	t := p.sys.Begin()
	defer t.Abort()
	var writes, alarms int64
	for c := range w.model {
		m := &w.model[c]
		writes += m.writes
		alarms += m.alarms
		if err := expectInt(db.Get(t, w.river[c], "level"))(m.level, fmt.Sprintf("river %d level", c)); err != nil {
			return err
		}
		if err := expectInt(db.Get(t, w.journal[c], "alarms"))(m.alarms, fmt.Sprintf("journal %d alarms", c)); err != nil {
			return err
		}
	}
	st := p.sys.Engine.Stats()
	// One tri per writing transaction, one pair per alarm; Trend fires
	// deferred per tri, Escalate and Page detached per alarm.
	want := eca.Stats{CompositesDetected: uint64(writes + alarms), DeferredFired: uint64(writes), DetachedFired: uint64(2 * alarms)}
	if st.CompositesDetected != want.CompositesDetected || st.DeferredFired != want.DeferredFired ||
		st.DetachedFired != want.DetachedFired || st.ImmediateFired != 0 {
		return fmt.Errorf("oracle: detected=%d deferred=%d detached=%d immediate=%d, script expects %d, %d, %d and 0",
			st.CompositesDetected, st.DeferredFired, st.DetachedFired, st.ImmediateFired,
			want.CompositesDetected, want.DeferredFired, want.DetachedFired)
	}
	// A recent-policy sequence buffers at most its latest initiator, so
	// whatever was not expired is bounded by the number of global
	// composites; nothing may pile up.
	if left := p.sys.Engine.SemiComposed(); left > numClients {
		return fmt.Errorf("oracle: %d semi-composed occurrences left, at most %d expected", left, numClients)
	}
	return nil
}

func (w *compositeWorkload) verifyPersistent(db *oodb.DB) error {
	t := db.Begin()
	defer t.Abort()
	for c := range w.model {
		j, err := db.Root(t, fmt.Sprintf("journal_%d", c))
		if err != nil {
			return err
		}
		if err := expectInt(db.Get(t, j, "alarms"))(w.model[c].alarms, fmt.Sprintf("recovered journal %d alarms", c)); err != nil {
			return err
		}
	}
	return nil
}

// userBytes: one int attribute per journal.
func (w *compositeWorkload) userBytes() int64 { return numClients * 8 }
