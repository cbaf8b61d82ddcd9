package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
)

const (
	durableItemsPerClient = 20000 // 40 000 × 512 B ≈ 20 MiB vs the 2 MiB default buffer pool
	durablePayloadBytes   = 512
	durablePayloads       = 256 // distinct payload images; an op names one by index
	durableUpdatesPerTxn  = 4
)

// durableWorkload is plant-durable: 40 000 persistent 512-byte objects,
// ten times the buffer pool; a transaction rewrites four objects of the
// client's own partition, one in ten also creates and one in twenty also
// deletes a persistent object. The oodb codec, storage.Store, buffer pool,
// WAL, group commit and checkpointer dominate; the one no-op immediate
// rule is there so that reaction latency exists. It is the mirror of
// plant-rules.
type durableWorkload struct {
	p        *plant
	payloads [][]byte
	items    [numClients][]*oodb.Object // by client-local index; grows on create
	ops      [numClients][]durableOp
	// live and last are the script generator's view, one step ahead of
	// the model: scripts are generated sequentially per client over its
	// private partition, so they know which objects exist and what each
	// holds when an operation runs.
	live  [numClients][]int32
	last  [numClients][]int16 // payload index last scripted per item; -1 = deleted
	model [numClients]durableModel
}

type durableOp struct {
	read    bool
	create  bool
	remove  int32 // item to delete, -1 for none
	item    [durableUpdatesPerTxn]int32
	payload [durableUpdatesPerTxn]uint8
	born    uint8 // payload of the created item
	newItem int32 // client-local index the created item gets
}

type durableModel struct {
	last []int16 // as durableWorkload.last, but only acknowledged operations
}

func (w *durableWorkload) roundOps() int { return 6000 }

func (w *durableWorkload) itemClass(c int) *oodb.Class {
	cl := oodb.NewClass(fmt.Sprintf("Item_%d", c),
		oodb.Attr{Name: "payload", Type: oodb.TBytes},
	)
	cl.Monitored = true
	cl.Method("store", traceMethod(func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		return nil, ctx.Set(self, "payload", args[0])
	}))
	return cl
}

func (w *durableWorkload) classes() []*oodb.Class {
	var out []*oodb.Class
	for c := 0; c < numClients; c++ {
		out = append(out, w.itemClass(c))
	}
	return out
}

func (w *durableWorkload) install(p *plant) error {
	w.p = p
	sys := p.sys
	for _, cl := range w.classes() {
		if err := sys.RegisterClass(cl); err != nil {
			return err
		}
	}
	// The payload images depend only on their index, so the recovery
	// oracle can rebuild them without the seed.
	w.payloads = make([][]byte, durablePayloads)
	for i := range w.payloads {
		img := make([]byte, durablePayloadBytes)
		rand.New(rand.NewSource(int64(i) + 1)).Read(img)
		img[0] = byte(i)
		w.payloads[i] = img
	}
	n := max(int(durableItemsPerClient*p.scale), 64)
	for c := 0; c < numClients; c++ {
		cli := p.clients[c]
		class := fmt.Sprintf("Item_%d", c)
		for start := 0; start < n; start += 500 {
			t := sys.Begin()
			for i := start; i < min(start+500, n); i++ {
				obj, err := sys.DB.NewObject(t, class)
				if err == nil {
					err = sys.DB.Set(t, obj, "payload", w.payloads[i%durablePayloads])
				}
				if err == nil {
					err = sys.DB.Persist(t, obj)
				}
				if err != nil {
					return err
				}
				w.items[c] = append(w.items[c], obj)
				w.live[c] = append(w.live[c], int32(i))
				w.last[c] = append(w.last[c], int16(i%durablePayloads))
			}
			if err := t.Commit(); err != nil {
				return err
			}
		}
		w.model[c].last = append([]int16(nil), w.last[c]...)
		err := sys.Engine.AddRule(traceRule(&eca.Rule{
			Name:       fmt.Sprintf("Stored_%d", c),
			EventKey:   event.MethodSpec{Class: class, Method: "store", When: event.After}.Key(),
			ActionMode: eca.Immediate,
			Action: func(rc *eca.RuleCtx) error {
				cli.reacted(pathImmediate, rc.Trigger.Args[1])
				return nil
			},
		}, spanGoBody))
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *durableWorkload) script(rng *rand.Rand, n int) {
	for c := range w.ops {
		ops := make([]durableOp, n)
		live, last := w.live[c], w.last[c]
		// Exact mix: per block of 40, five reads, four creates (10 % of
		// writers, rounded), two deletes (5 %).
		for b := 0; b < n; b += 40 {
			blk := ops[b:min(b+40, n)]
			for i := range blk {
				blk[i].remove = -1
			}
			perm := rng.Perm(len(blk))
			for k, i := range perm {
				switch {
				case k < 5:
					blk[i].read = true
				case k < 9:
					blk[i].create = true
				case k < 11:
					blk[i].remove = 0 // victim chosen below, in script order
				}
			}
		}
		for i := range ops {
			op := &ops[i]
			for k := range op.item {
				it := live[rng.Intn(len(live))]
				for slices.Contains(op.item[:k], it) { // distinct items within one transaction
					it = live[rng.Intn(len(live))]
				}
				op.item[k] = it
				if op.read {
					op.payload[k] = uint8(last[it]) // what the read must find
				} else {
					op.payload[k] = uint8(rng.Intn(durablePayloads))
					last[it] = int16(op.payload[k])
				}
			}
			if op.remove == 0 {
				// Delete an item this transaction does not also update.
				j := rng.Intn(len(live))
				for slices.Contains(op.item[:], live[j]) {
					j = rng.Intn(len(live))
				}
				op.remove = live[j]
				last[live[j]] = -1
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if op.create {
				op.born = uint8(rng.Intn(durablePayloads))
				op.newItem = int32(len(last))
				live = append(live, op.newItem)
				last = append(last, int16(op.born))
			}
		}
		w.ops[c], w.live[c], w.last[c] = ops, live, last
		// Slots for the items this round creates.
		w.items[c] = append(w.items[c], make([]*oodb.Object, len(last)-len(w.items[c]))...)
	}
}

func (w *durableWorkload) do(c *client, i int) (int, error) {
	op := &w.ops[c.id][i]
	db := c.p.sys.DB
	items := w.items[c.id]
	t, err := c.begin()
	if err != nil {
		return 0, err
	}
	if op.read {
		c.access()
		for k, it := range op.item {
			var v any
			if v, err = db.Get(t, items[it], "payload"); err != nil {
				break
			}
			if b, _ := v.([]byte); len(b) != durablePayloadBytes || b[0] != op.payload[k] {
				err = fmt.Errorf("oracle: client %d item %d does not hold payload %d", c.id, it, op.payload[k])
				break
			}
		}
		c.accessDone()
		if err != nil {
			return kindRead, c.fail(t, err)
		}
		return kindRead, c.commit(t)
	}
	for k, it := range op.item {
		if _, err := c.invoke(t, items[it], "store", w.payloads[op.payload[k]], nowNS()); err != nil {
			return kindWrite, c.fail(t, err)
		}
	}
	if op.create || op.remove >= 0 {
		c.access()
		if op.create {
			var obj *oodb.Object
			obj, err = db.NewObject(t, fmt.Sprintf("Item_%d", c.id))
			if err == nil {
				err = db.Set(t, obj, "payload", w.payloads[op.born])
			}
			if err == nil {
				err = db.Persist(t, obj)
			}
			items[op.newItem] = obj
		}
		if err == nil && op.remove >= 0 {
			err = db.Delete(t, items[op.remove])
		}
		c.accessDone()
		if err != nil {
			return kindWrite, c.fail(t, err)
		}
	}
	return kindWrite, c.commit(t)
}

func (w *durableWorkload) settle(failed [][]int) {
	for c := range w.ops {
		m := &w.model[c]
		skip := failedSet(failed[c])
		for i := range w.ops[c] {
			op := &w.ops[c][i]
			if op.create {
				m.last = append(m.last, -1) // the index exists even if the create failed
			}
			if op.read || skip[i] {
				continue
			}
			for k, it := range op.item {
				m.last[it] = int16(op.payload[k])
			}
			if op.create {
				m.last[len(m.last)-1] = int16(op.born)
			}
			if op.remove >= 0 {
				m.last[op.remove] = -1
			}
		}
	}
}

func (w *durableWorkload) userBytes() int64 {
	var n int64
	for c := range w.model {
		for _, p := range w.model[c].last {
			if p >= 0 {
				n += durablePayloadBytes
			}
		}
	}
	return n
}

// check compares every object of every client with the model: count of
// live objects, and each one's payload byte for byte.
func (w *durableWorkload) check(db *oodb.DB, load func(c, item int) (*oodb.Object, error)) error {
	t := db.Begin()
	defer t.Abort()
	for c := range w.model {
		want := 0
		for it, p := range w.model[c].last {
			if p < 0 {
				continue
			}
			want++
			obj, err := load(c, it)
			if err != nil {
				return fmt.Errorf("oracle: client %d item %d: %w", c, it, err)
			}
			v, err := db.Get(t, obj, "payload")
			if err != nil {
				return fmt.Errorf("oracle: client %d item %d: %w", c, it, err)
			}
			if b, _ := v.([]byte); !bytes.Equal(b, w.payloads[p]) {
				return fmt.Errorf("oracle: client %d item %d does not hold payload %d", c, it, p)
			}
		}
		got := 0
		db.Extent(fmt.Sprintf("Item_%d", c), func(oodb.OID) { got++ })
		if got != want {
			return fmt.Errorf("oracle: client %d has %d objects, script expects %d", c, got, want)
		}
	}
	return nil
}

func (w *durableWorkload) verify(p *plant) error {
	return w.check(p.sys.DB, func(c, it int) (*oodb.Object, error) { return w.items[c][it], nil })
}

func (w *durableWorkload) verifyPersistent(db *oodb.DB) error {
	t := db.Begin()
	defer t.Abort()
	return w.check(db, func(c, it int) (*oodb.Object, error) { return db.Load(t, w.items[c][it].OID()) })
}

// budgetNS is the latency budget of one four-store transaction. The
// storage term charges each rewritten object one log append, the misses
// among its page fixes the difference between the miss and hit probes,
// and the transaction its share of a log flush.
func (w *durableWorkload) budgetNS(m map[string]float64) float64 {
	const stores = durableUpdatesPerTxn
	miss := 1 - m["storage.buffer_hit_share"]
	return m["probe.governor.admit_ns"] + m["probe.txn.begin_commit_ns"] +
		m["sentry.useful"]*m["probe.sentry.emit_useful_ns"] +
		m["sentry.useless"]*m["probe.sentry.emit_useless_ns"] +
		m["eca.immediate_fired"]*m["probe.txn.child_commit_inherit_ns"] +
		stores*(m["probe.oodb.set_ns"]+m["probe.txn.lock_x_ns"]+m["probe.storage.wal_append_ns"]) +
		stores*miss*(m["probe.storage.update_miss_ns"]-m["probe.storage.update_hit_ns"]) +
		m["device.syncs"]*(m["probe.storage.wal_sync_ns"]-m["probe.storage.wal_append_ns"])
}
