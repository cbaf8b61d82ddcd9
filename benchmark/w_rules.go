package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/rules"
)

//go:embed rules/plant.rules
var plantRulesSrc string

const riversPerClient = 64

// rulesWorkload is plant-rules: each client owns 64 transient River
// objects and one persistent Reactor root; a transaction is one
// updateWaterLevel(x) that fires eight rules on that event. Sentry, ECA
// dispatch, rule subtransactions, lock inheritance and rule-language
// evaluation do nearly all the work; storage sees only the one write in
// eight that reaches the reactor.
type rulesWorkload struct {
	p       *plant
	rivers  [numClients][]*oodb.Object
	reactor [numClients]*oodb.Object
	ops     [numClients][]rulesOp
	model   [numClients]rulesModel
}

type rulesOp struct {
	river uint8
	x     int8
	read  bool
}

type rulesModel struct {
	level, low, hot, notes [riversPerClient]int64
	touched                [riversPerClient]bool
	reductions, updates    int64
}

func riverWarm(i int) bool { return i%2 == 0 }

func (w *rulesWorkload) roundOps() int { return 12000 }

func (w *rulesWorkload) classes() []*oodb.Class {
	var out []*oodb.Class
	for c := 0; c < numClients; c++ {
		out = append(out, w.riverClass(c), w.reactorClass(c))
	}
	return out
}

func (w *rulesWorkload) riverClass(c int) *oodb.Class {
	cl := oodb.NewClass(fmt.Sprintf("River_%d", c),
		oodb.Attr{Name: "level", Type: oodb.TInt},
		oodb.Attr{Name: "temp", Type: oodb.TFloat},
		oodb.Attr{Name: "low", Type: oodb.TInt},
		oodb.Attr{Name: "hot", Type: oodb.TInt},
		oodb.Attr{Name: "notes", Type: oodb.TInt},
		oodb.Attr{Name: "checked", Type: oodb.TInt},
		oodb.Attr{Name: "seen", Type: oodb.TInt},
	)
	cl.Monitored = true
	cl.Method("updateWaterLevel", traceMethod(func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "level", args[0])
	}))
	cl.Method("getTemp", traceMethod(func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
		return ctx.Get(self, "temp")
	}))
	cl.Method("noteLow", traceMethod(func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
		n, err := ctx.GetInt(self, "notes")
		if err != nil {
			return nil, err
		}
		return nil, ctx.Set(self, "notes", n+1)
	}))
	return cl
}

func (w *rulesWorkload) reactorClass(c int) *oodb.Class {
	cl := oodb.NewClass(fmt.Sprintf("Reactor_%d", c),
		oodb.Attr{Name: "heat", Type: oodb.TInt},
		oodb.Attr{Name: "reductions", Type: oodb.TInt},
	)
	cl.Method("getHeat", traceMethod(func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
		return ctx.Get(self, "heat")
	}))
	return cl
}

func (w *rulesWorkload) install(p *plant) error {
	w.p = p
	sys := p.sys
	for _, cl := range w.classes() {
		if err := sys.RegisterClass(cl); err != nil {
			return err
		}
	}
	t := sys.Begin()
	for c := 0; c < numClients; c++ {
		for i := 0; i < riversPerClient; i++ {
			r, err := sys.DB.NewObject(t, fmt.Sprintf("River_%d", c))
			if err != nil {
				return err
			}
			temp := 20.0
			if riverWarm(i) {
				temp = 26.0
			}
			if err := sys.DB.Set(t, r, "temp", temp); err != nil {
				return err
			}
			w.rivers[c] = append(w.rivers[c], r)
		}
		re, err := sys.DB.NewObject(t, fmt.Sprintf("Reactor_%d", c))
		if err != nil {
			return err
		}
		if err := sys.DB.Set(t, re, "heat", int64(2_000_000)); err != nil {
			return err
		}
		if err := sys.DB.SetRoot(t, fmt.Sprintf("reactor_%d", c), re); err != nil {
			return err
		}
		w.reactor[c] = re
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

// installRules registers client c's eight rules on its River's
// updateWaterLevel: four immediate and two deferred Go rules, and the two
// immediate rules of rules/plant.rules compiled by rules.Compile.
func (w *rulesWorkload) installRules(c int) error {
	engine := w.p.sys.Engine
	cli := w.p.clients[c]
	reactor := w.reactor[c]
	key := event.MethodSpec{Class: fmt.Sprintf("River_%d", c), Method: "updateWaterLevel", When: event.After}.Key()
	river := func(rc *eca.RuleCtx) (*oodb.Object, error) { return rc.Ctx().Load(oodb.OID(rc.Trigger.OID)) }
	bump := func(rc *eca.RuleCtx, obj *oodb.Object, attr string) error {
		n, err := rc.Ctx().GetInt(obj, attr)
		if err != nil {
			return err
		}
		return rc.Ctx().Set(obj, attr, n+1)
	}
	x := func(rc *eca.RuleCtx) int64 { return rc.Trigger.Args[0].(int64) }

	goRules := []*eca.Rule{
		{Name: "Trend", Priority: 9, ActionMode: eca.Immediate,
			Cond: func(rc *eca.RuleCtx) (bool, error) { return x(rc) < 40, nil },
			Action: func(rc *eca.RuleCtx) error {
				r, err := river(rc)
				if err != nil {
					return err
				}
				return bump(rc, r, "low")
			}},
		{Name: "Throttle", Priority: 8, ActionMode: eca.Immediate,
			Cond: func(rc *eca.RuleCtx) (bool, error) {
				heat, err := rc.Ctx().GetInt(reactor, "heat")
				return err == nil && heat > 0 && x(rc) < 12, err
			},
			Action: func(rc *eca.RuleCtx) error { return bump(rc, reactor, "reductions") }},
		{Name: "Hot", Priority: 7, ActionMode: eca.Immediate,
			Cond: func(rc *eca.RuleCtx) (bool, error) {
				r, err := river(rc)
				if err != nil {
					return false, err
				}
				temp, err := rc.Ctx().GetFloat(r, "temp")
				return err == nil && temp > 24.5 && x(rc) >= 90, err
			},
			Action: func(rc *eca.RuleCtx) error {
				r, err := river(rc)
				if err != nil {
					return err
				}
				return bump(rc, r, "hot")
			}},
		{Name: "Audit", Priority: 6, ActionMode: eca.Immediate,
			Action: func(rc *eca.RuleCtx) error {
				r, err := river(rc)
				if err != nil {
					return err
				}
				level, err := rc.Ctx().GetInt(r, "level")
				if err == nil && level != x(rc) {
					err = fmt.Errorf("rule sees level %d after updateWaterLevel(%d)", level, x(rc))
				}
				return err
			}},
		{Name: "Checked", Priority: 2, ActionMode: eca.Deferred,
			Action: func(rc *eca.RuleCtx) error {
				cli.reacted(pathDefer, rc.Trigger.Args[1])
				r, err := river(rc)
				if err != nil {
					return err
				}
				return rc.Ctx().Set(r, "checked", x(rc))
			}},
		{Name: "Balance", Priority: 1, ActionMode: eca.Deferred,
			Cond: func(rc *eca.RuleCtx) (bool, error) { return x(rc)%2 == 0, nil },
			Action: func(rc *eca.RuleCtx) error {
				cli.reacted(pathDefer, rc.Trigger.Args[1])
				_, err := rc.Ctx().GetInt(reactor, "reductions")
				return err
			}},
	}
	for _, r := range goRules {
		r.Name = fmt.Sprintf("%s_%d", r.Name, c)
		r.EventKey = key
		if err := engine.AddRule(traceRule(r, spanGoBody)); err != nil {
			return err
		}
	}

	decls, err := rules.Parse(strings.ReplaceAll(plantRulesSrc, "$C", fmt.Sprint(c)))
	if err != nil {
		return err
	}
	for _, d := range decls {
		r, comps, temps, err := rules.Compile(engine, d)
		if err != nil {
			return err
		}
		if len(comps) > 0 || len(temps) > 0 {
			return fmt.Errorf("rules/plant.rules: rule %s must trigger on a primitive event", d.Name)
		}
		if err := engine.AddRule(traceRule(r, spanEval)); err != nil {
			return err
		}
	}
	return nil
}

func (w *rulesWorkload) script(rng *rand.Rand, n int) {
	for c := range w.ops {
		ops := make([]rulesOp, n)
		for i := range ops {
			ops[i] = rulesOp{river: uint8(rng.Intn(riversPerClient)), x: int8(rng.Intn(100))}
		}
		// Exactly one read-only transaction in every block of eight.
		for b := 0; b+8 <= n; b += 8 {
			ops[b+rng.Intn(8)].read = true
		}
		w.ops[c] = ops
	}
}

func (w *rulesWorkload) do(c *client, i int) (int, error) {
	op := w.ops[c.id][i]
	db := c.p.sys.DB
	river := w.rivers[c.id][op.river]
	t, err := c.begin()
	if err != nil {
		return 0, err
	}
	if op.read {
		c.access()
		_, err = db.Get(t, river, "level")
		if err == nil {
			_, err = db.Get(t, w.reactor[c.id], "reductions")
		}
		c.accessDone()
		if err != nil {
			return kindRead, c.fail(t, err)
		}
		return kindRead, c.commit(t)
	}
	if _, err := c.invoke(t, river, "updateWaterLevel", int64(op.x), nowNS()); err != nil {
		return kindWrite, c.fail(t, err)
	}
	return kindWrite, c.commit(t)
}

func (w *rulesWorkload) settle(failed [][]int) {
	for c := range w.ops {
		m := &w.model[c]
		skip := failedSet(failed[c])
		for i, op := range w.ops[c] {
			if op.read || skip[i] {
				continue
			}
			x := int64(op.x)
			m.updates++
			m.level[op.river] = x
			m.touched[op.river] = true
			if x < 40 {
				m.low[op.river]++
			}
			if x < 12 {
				m.reductions++
			}
			if x >= 90 && riverWarm(int(op.river)) {
				m.hot[op.river]++
			}
			if x < 37 && riverWarm(int(op.river)) {
				m.notes[op.river]++
			}
		}
	}
}

func (w *rulesWorkload) verify(p *plant) error {
	db := p.sys.DB
	t := p.sys.Begin()
	defer t.Abort()
	var updates int64
	for c := range w.model {
		m := &w.model[c]
		updates += m.updates
		for i, r := range w.rivers[c] {
			want := map[string]int64{"level": m.level[i], "low": m.low[i], "hot": m.hot[i], "notes": m.notes[i]}
			if m.touched[i] {
				want["checked"], want["seen"] = m.level[i], m.level[i]
			}
			for attr, v := range want {
				if err := expectInt(db.Get(t, r, attr))(v, fmt.Sprintf("client %d river %d %s", c, i, attr)); err != nil {
					return err
				}
			}
		}
		if err := expectInt(db.Get(t, w.reactor[c], "reductions"))(m.reductions, fmt.Sprintf("reactor %d reductions", c)); err != nil {
			return err
		}
	}
	st := p.sys.Engine.Stats()
	if st.ImmediateFired != uint64(6*updates) || st.DeferredFired != uint64(2*updates) {
		return fmt.Errorf("fired immediate=%d deferred=%d, script expects %d and %d",
			st.ImmediateFired, st.DeferredFired, 6*updates, 2*updates)
	}
	return nil
}

func (w *rulesWorkload) verifyPersistent(db *oodb.DB) error {
	t := db.Begin()
	defer t.Abort()
	for c := range w.model {
		re, err := db.Root(t, fmt.Sprintf("reactor_%d", c))
		if err != nil {
			return err
		}
		if err := expectInt(db.Get(t, re, "reductions"))(w.model[c].reductions, fmt.Sprintf("recovered reactor %d reductions", c)); err != nil {
			return err
		}
	}
	return nil
}

// userBytes: the persistent state is two int attributes per reactor.
func (w *rulesWorkload) userBytes() int64 { return numClients * 16 }

// failedSet turns a client's failed script indices into a lookup.
func failedSet(failed []int) map[int]bool {
	if len(failed) == 0 {
		return nil
	}
	set := make(map[int]bool, len(failed))
	for _, i := range failed {
		set[i] = true
	}
	return set
}

// expectInt adapts a (value, error) read into a comparison with the
// model: expectInt(db.Get(...))(want, what).
func expectInt(v any, err error) func(want int64, what string) error {
	return func(want int64, what string) error {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if got, _ := v.(int64); got != want {
			return fmt.Errorf("oracle: %s = %d, script expects %d", what, got, want)
		}
		return nil
	}
}

// budgetNS is the latency budget of one updateWaterLevel transaction:
// counts at the layer boundaries × the cost the isolated probes measured.
// Sentry checks and rule firings are the measured per-transaction counts;
// attribute accesses and first-time locks are the expected values of the
// rule set above under the script's uniform x (see README).
func (w *rulesWorkload) budgetNS(m map[string]float64) float64 {
	const (
		reads  = 16.2 // Get and Load calls: method body, rule bodies, bindEnv of the compiled rules
		writes = 3.8  // Set calls
		locksS = 1.0  // reactor
		locksX = 1.12 // river, plus the reactor upgrade when Throttle fires
		conds  = 2.0  // compiled conditions
	)
	return m["probe.governor.admit_ns"] + m["probe.txn.begin_commit_ns"] +
		m["sentry.useful"]*m["probe.sentry.emit_useful_ns"] +
		m["sentry.useless"]*m["probe.sentry.emit_useless_ns"] +
		(m["eca.immediate_fired"]+m["eca.deferred_fired"])*m["probe.txn.child_commit_inherit_ns"] +
		reads*m["probe.oodb.get_ns"] + writes*m["probe.oodb.set_ns"] +
		locksS*m["probe.txn.lock_s_ns"] + locksX*m["probe.txn.lock_x_ns"] +
		conds*m["probe.rules.cond_eval_ns"] +
		m["device.syncs"]*m["probe.storage.wal_sync_ns"]
}
