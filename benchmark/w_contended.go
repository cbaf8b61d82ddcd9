package main

import (
	"fmt"
	"math/rand"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/query"
	"repro/internal/txn"
)

const hotTanks = 8

// contendedWorkload is plant-contended: both clients share eight hot Tank
// objects. Of every twenty operations ten are read-only transactions (S on
// two tanks in ascending order plus one indexed query.Select), nine are
// fills (read-modify-write of one tank, S→X upgrade, two immediate rules
// that write only the client's private audit object) and one is a flat
// two-tank writer in scripted random order on a method nobody subscribed
// to — lock-order and upgrade deadlocks end in ErrDeadlock and a client
// retry. The Tank.level hash index is maintained by the query layer's own
// rules. The layers are those of plant-rules, but the time goes into
// waiting, queueing, waking and picking victims.
//
// No rule subtransaction here ever waits on a lock held by the other
// client's tree (see README, "Deliberately excluded").
type contendedWorkload struct {
	p      *plant
	tanks  [hotTanks]*oodb.Object
	audit  [numClients]*oodb.Object
	ledger [numClients]*oodb.Object
	index  *query.HashIndex
	ops    [numClients][]contendedOp
	model  struct {
		level   [hotTanks]int64
		fills   [numClients]int64
		ledgers [numClients]int64
	}
}

const (
	opRead = iota
	opFill
	opPair
)

type contendedOp struct {
	kind uint8
	a, b uint8 // tanks; a < b for reads, scripted order for pairs
}

func (w *contendedWorkload) roundOps() int { return 30000 }

func (w *contendedWorkload) classes() []*oodb.Class {
	tank := oodb.NewClass("Tank",
		oodb.Attr{Name: "level", Type: oodb.TInt},
		oodb.Attr{Name: "check", Type: oodb.TInt},
	)
	tank.Monitored = true
	raise := func(ctx *oodb.Ctx, self *oodb.Object, _ []any) (any, error) {
		level, err := ctx.GetInt(self, "level")
		if err != nil {
			return nil, err
		}
		if err := ctx.Set(self, "level", level+1); err != nil {
			return nil, err
		}
		// check trails level inside the transaction only: a reader that
		// sees them differ has observed an uncommitted value.
		return nil, ctx.Set(self, "check", level+1)
	}
	tank.Method("fill", traceMethod(raise))
	tank.Method("topUp", traceMethod(raise))
	out := []*oodb.Class{tank}
	for c := 0; c < numClients; c++ {
		out = append(out,
			oodb.NewClass(fmt.Sprintf("Audit_%d", c),
				oodb.Attr{Name: "fills", Type: oodb.TInt}, oodb.Attr{Name: "last", Type: oodb.TInt}),
			oodb.NewClass(fmt.Sprintf("Ledger_%d", c), oodb.Attr{Name: "pairs", Type: oodb.TInt}))
	}
	return out
}

func (w *contendedWorkload) install(p *plant) error {
	w.p = p
	sys := p.sys
	for _, cl := range w.classes() {
		if err := sys.RegisterClass(cl); err != nil {
			return err
		}
	}
	t := sys.Begin()
	var err error
	for i := range w.tanks {
		if w.tanks[i], err = sys.DB.NewObject(t, "Tank"); err != nil {
			return err
		}
	}
	for c := 0; c < numClients; c++ {
		if w.audit[c], err = sys.DB.NewObject(t, fmt.Sprintf("Audit_%d", c)); err != nil {
			return err
		}
		if w.ledger[c], err = sys.DB.NewObject(t, fmt.Sprintf("Ledger_%d", c)); err != nil {
			return err
		}
		if err := sys.DB.SetRoot(t, fmt.Sprintf("ledger_%d", c), w.ledger[c]); err != nil {
			return err
		}
	}
	if err := t.Commit(); err != nil {
		return err
	}
	if w.index, err = sys.Query.CreateIndex("Tank", "level"); err != nil {
		return err
	}
	// The tanks are shared, so fill carries the client number as its
	// first argument; the rules use it to find that client's audit object.
	filler := func(rc *eca.RuleCtx) *client { return p.clients[rc.Trigger.Args[0].(int64)] }
	key := event.MethodSpec{Class: "Tank", Method: "fill", When: event.After}.Key()
	rules := []*eca.Rule{
		{Name: "CountFill", Priority: 2, ActionMode: eca.Immediate,
			Action: func(rc *eca.RuleCtx) error {
				cli := filler(rc)
				cli.reacted(pathImmediate, rc.Trigger.Args[1])
				audit := w.audit[cli.id]
				n, err := rc.Ctx().GetInt(audit, "fills")
				if err != nil {
					return err
				}
				return rc.Ctx().Set(audit, "fills", n+1)
			}},
		{Name: "LastFill", Priority: 1, ActionMode: eca.Immediate,
			Cond: func(rc *eca.RuleCtx) (bool, error) { return rc.Trigger.OID != 0, nil },
			Action: func(rc *eca.RuleCtx) error {
				return rc.Ctx().Set(w.audit[filler(rc).id], "last", int64(rc.Trigger.OID))
			}},
	}
	for _, r := range rules {
		r.EventKey = key
		if err := sys.Engine.AddRule(traceRule(r, spanGoBody)); err != nil {
			return err
		}
	}
	return nil
}

func (w *contendedWorkload) script(rng *rand.Rand, n int) {
	for c := range w.ops {
		ops := make([]contendedOp, n)
		// Exact mix per block of twenty: ten reads, nine fills, one pair.
		for b := 0; b < n; b += 20 {
			blk := ops[b:min(b+20, n)]
			for k, i := range rng.Perm(len(blk)) {
				switch {
				case k < 10:
					blk[i].kind = opRead
				case k < 19:
					blk[i].kind = opFill
				default:
					blk[i].kind = opPair
				}
			}
		}
		for i := range ops {
			a := uint8(rng.Intn(hotTanks))
			b := uint8(rng.Intn(hotTanks - 1))
			if b >= a {
				b++
			}
			if ops[i].kind == opRead && a > b {
				a, b = b, a
			}
			ops[i].a, ops[i].b = a, b
		}
		w.ops[c] = ops
	}
}

func (w *contendedWorkload) do(c *client, i int) (int, error) {
	op := w.ops[c.id][i]
	db := c.p.sys.DB
	t, err := c.begin()
	if err != nil {
		return 0, err
	}
	switch op.kind {
	case opRead:
		c.access()
		err = w.read(c, t, op)
		c.accessDone()
		if err != nil {
			return kindRead, c.fail(t, err)
		}
		return kindRead, c.commit(t)
	case opFill:
		if _, err := c.invoke(t, w.tanks[op.a], "fill", int64(c.id), nowNS()); err != nil {
			return kindWrite, c.fail(t, err)
		}
	case opPair:
		for _, tank := range []uint8{op.a, op.b} {
			if _, err := c.invoke(t, w.tanks[tank], "topUp", int64(c.id)); err != nil {
				return kindWrite, c.fail(t, err)
			}
		}
		c.access()
		ledger := w.ledger[c.id]
		var v any
		if v, err = db.Get(t, ledger, "pairs"); err == nil {
			err = db.Set(t, ledger, "pairs", v.(int64)+1)
		}
		c.accessDone()
		if err != nil {
			return kindWrite, c.fail(t, err)
		}
	}
	return kindWrite, c.commit(t)
}

// read is the read-only transaction: two tanks under S in ascending
// order, then an indexed Select for the first one's level, which must
// find that tank.
func (w *contendedWorkload) read(c *client, t *txn.Txn, op contendedOp) error {
	db := c.p.sys.DB
	var level int64
	for k, tank := range []uint8{op.a, op.b} {
		l, err := db.Get(t, w.tanks[tank], "level")
		if err != nil {
			return err
		}
		ck, err := db.Get(t, w.tanks[tank], "check")
		if err != nil {
			return err
		}
		if l != ck {
			return fmt.Errorf("oracle: reader saw tank %d with level %v and check %v: an uncommitted value", tank, l, ck)
		}
		if k == 0 {
			level = l.(int64)
		}
	}
	found, err := c.p.sys.Query.Select(t, "Tank", query.Pred{Attr: "level", Op: query.Eq, Value: level})
	if err != nil {
		return err
	}
	for _, obj := range found {
		if obj == w.tanks[op.a] {
			return nil
		}
	}
	return fmt.Errorf("oracle: indexed Select(level=%d) missed tank %d, which holds it under this reader's S lock", level, op.a)
}

func (w *contendedWorkload) settle(failed [][]int) {
	for c := range w.ops {
		skip := failedSet(failed[c])
		for i, op := range w.ops[c] {
			if skip[i] {
				continue
			}
			switch op.kind {
			case opFill:
				w.model.level[op.a]++
				w.model.fills[c]++
			case opPair:
				w.model.level[op.a]++
				w.model.level[op.b]++
				w.model.ledgers[c]++
			}
		}
	}
}

func (w *contendedWorkload) verify(p *plant) error {
	db := p.sys.DB
	t := p.sys.Begin()
	defer t.Abort()
	for i, tank := range w.tanks {
		want := w.model.level[i]
		if err := expectInt(db.Get(t, tank, "level"))(want, fmt.Sprintf("tank %d level (acknowledged fills)", i)); err != nil {
			return err
		}
		// The rule-maintained index must agree with a scan.
		hit := false
		for _, oid := range w.index.Lookup(want) {
			hit = hit || oid == tank.OID()
		}
		if !hit {
			return fmt.Errorf("oracle: index has no entry level=%d for tank %d", want, i)
		}
	}
	if n := w.index.Size(); n != hotTanks {
		return fmt.Errorf("oracle: index holds %d entries for %d tanks", n, hotTanks)
	}
	for c := 0; c < numClients; c++ {
		if err := expectInt(db.Get(t, w.audit[c], "fills"))(w.model.fills[c], fmt.Sprintf("audit %d fills", c)); err != nil {
			return err
		}
		if err := expectInt(db.Get(t, w.ledger[c], "pairs"))(w.model.ledgers[c], fmt.Sprintf("ledger %d pairs", c)); err != nil {
			return err
		}
	}
	return nil
}

func (w *contendedWorkload) verifyPersistent(db *oodb.DB) error {
	t := db.Begin()
	defer t.Abort()
	for c := 0; c < numClients; c++ {
		l, err := db.Root(t, fmt.Sprintf("ledger_%d", c))
		if err != nil {
			return err
		}
		if err := expectInt(db.Get(t, l, "pairs"))(w.model.ledgers[c], fmt.Sprintf("recovered ledger %d pairs", c)); err != nil {
			return err
		}
	}
	return nil
}

// userBytes: one int attribute per ledger.
func (w *contendedWorkload) userBytes() int64 { return numClients * 8 }
