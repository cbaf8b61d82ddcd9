package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic" //lint:allow rawatomics the benchmark's own progress counters and sample indices, not program metrics
	"time"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/oodb"
	"repro/internal/storage"
	"repro/internal/txn"
)

// numClients is the closed-loop client count: one per core of the
// 2-CPU box the benchmark is sized for. Each client waits for its commit
// before it sends the next transaction (an embedded-library caller).
const numClients = 2

// retryBudget is how many times a client tries one operation. Only
// ErrDeadlock and ErrOverloaded are retried, with attempt×Gosched
// back-off and no sleeps; any other error fails the operation at once.
const retryBudget = 10

// Operation kinds, as the end-to-end latency metrics split them.
const (
	kindWrite = iota
	kindRead
	numKinds
)

// Reaction paths: how the rule whose action read the stamp was coupled.
const (
	pathImmediate = iota // immediate rule on a primitive event
	pathDefer            // deferred rule (primitive or txn-scoped composite)
	pathDetach           // detached rule on a primitive event
	pathCompose          // detached rule on a global composite
	numPaths
)

// nowNS is the benchmark's one clock: nanoseconds since process start, read
// from the monotonic clock. Stamps in method arguments, spans and every
// duration the benchmark reports are differences of it. (The repository's
// clockusage lint guards the program's determinism; a benchmark is there
// to read the wall clock.)
var clockBase = time.Now() //lint:allow clockusage the benchmark measures wall-clock time

func nowNS() int64 { return int64(time.Since(clockBase)) } //lint:allow clockusage the benchmark measures wall-clock time

// since is the time elapsed from a nowNS reading.
func since(startNS int64) time.Duration { return time.Duration(nowNS() - startNS) }

// workload is one plant traffic mix. A fresh value is built for every
// set-up, because it carries the oracle's model of the state its
// acknowledged operations produced.
type workload interface {
	// install registers classes and rules on the fresh system and
	// populates it.
	install(p *plant) error
	// roundOps is the per-client operation count of one round at scale 1.
	roundOps() int
	// script pre-generates each client's next n operations, so no random
	// number is drawn on the timed path.
	script(rng *rand.Rand, n int)
	// do runs operation i of client c's script as one transaction.
	do(c *client, i int) (kind int, err error)
	// settle folds the round's acknowledged operations into the model;
	// failed[c] lists the script indices client c did not get through.
	settle(failed [][]int)
	// verify checks the live system against the model.
	verify(p *plant) error
	// verifyPersistent checks a reopened database against the model's
	// persistent part.
	verifyPersistent(db *oodb.DB) error
	// userBytes is the model's count of live persistent user bytes.
	userBytes() int64
	// classes returns fresh class descriptors, for a reopened database.
	classes() []*oodb.Class
}

// plant is one open REACH system on the benchmark's device.
type plant struct {
	sys     *core.System
	dev     *device
	dir     string
	w       workload
	clients []*client
	rng     *rand.Rand
	scale   float64
	tally   *tally
}

// testHook, when a test sets it, runs before every operation: the
// injection point for the watchdog's wedge test.
var testHook func(c *client, i int)

// client is one closed-loop caller.
type client struct {
	id int
	p  *plant

	lat   [numKinds][]int32 // per-operation latency of the current round, ns
	react [numPaths]reactBuf

	retries, victims int64
	failed           []int
	progress         atomic.Int64 // operations finished this round (watchdog)
	n                int          // operations scripted this round

	tr *tracer // nil in the untraced pass
}

// reactBuf collects raise→action-start latencies. Detached rules run on
// executor workers, so the write index is atomic.
type reactBuf struct {
	buf []int32
	n   atomic.Int64
}

func (r *reactBuf) add(ns int64) {
	if i := r.n.Add(1) - 1; i < int64(len(r.buf)) {
		r.buf[i] = int32(min(ns, 1<<31-1))
	}
}

func (r *reactBuf) samples() []int32 { return r.buf[:min(r.n.Load(), int64(len(r.buf)))] }

// reacted is what a stamped rule action calls first: stamp is the
// raise time the client put into the event's arguments.
func (c *client) reacted(path int, stamp any) {
	if s, ok := stamp.(int64); ok && s > 0 {
		c.react[path].add(nowNS() - s)
	}
}

// tally counts every operation a pass attempts, over all its plants, and
// remembers the plant whose round is running: what the watchdog needs to
// charge a wedge's unfinished operations as failed.
type tally struct {
	attempted, failed atomic.Int64
	current           atomic.Pointer[plant]
}

// bench is one pass over one workload: the device every plant of the pass
// lives on, and what each set-up needs.
type bench struct {
	newW  func() workload
	cfg   config
	dev   *device
	tally *tally
}

func newBench(newW func() workload, cfg config, t *tally) *bench {
	return &bench{newW: newW, cfg: cfg, dev: newDevice(cfg.dir != ""), tally: t}
}

// setUp is what setup_s times: open a system in a fresh directory with the
// benchmark's flush policy (SyncOnCommit, group commit on, background
// checkpointer on), register, load rules, populate, and warm up with one
// tenth of a round, folded into the model like any round. parked keeps the
// background checkpointer from ever triggering: the recovery phase needs
// the whole log replayed. Each set-up of a pass scripts from its own seed.
func (b *bench) setUp(seedOffset int64, parked bool) (*plant, time.Duration, error) {
	dir := scratchDir(b.cfg.dir)
	if err := b.dev.mkdir(dir); err != nil {
		return nil, 0, err
	}
	start := nowNS()
	st := storage.Options{FS: b.dev}
	if parked {
		st.Checkpoint.WALBytes = 1 << 50
		st.Checkpoint.Interval = 24 * time.Hour
	}
	sys, err := core.Open(core.Options{Dir: dir, DB: oodb.Options{Storage: st}})
	if err != nil {
		return nil, 0, err
	}
	p := &plant{sys: sys, dev: b.dev, dir: dir, w: b.newW(), scale: b.cfg.scale, tally: b.tally,
		rng: rand.New(rand.NewSource(b.cfg.seed + seedOffset))}
	for i := 0; i < numClients; i++ {
		p.clients = append(p.clients, &client{id: i, p: p})
	}
	if err := p.w.install(p); err != nil {
		p.close()
		return nil, 0, fmt.Errorf("install: %w", err)
	}
	if r := p.round(max(p.opsPerRound()/10, 8)); r.failed > 0 {
		p.close()
		return nil, 0, fmt.Errorf("warm-up: %d operations failed", r.failed)
	}
	return p, since(start), nil
}

func (p *plant) opsPerRound() int { return max(int(float64(p.w.roundOps())*p.scale), 16) }

func (p *plant) close() error {
	err := p.sys.Close()
	p.dev.removeDir(p.dir)
	return err
}

// begin, commit and fail are the transaction bracket every operation
// uses; in the traced pass they also record the begin and commit spans.
func (c *client) begin() (*txn.Txn, error) {
	if c.tr == nil {
		return c.p.sys.BeginTxn()
	}
	c.tr.open(spanTxn)
	c.tr.open(spanBegin)
	t, err := c.p.sys.BeginTxn()
	c.tr.close()
	if err != nil {
		c.tr.close()
		return nil, err
	}
	t.SetValue(clientKey{}, c)
	return t, nil
}

func (c *client) commit(t *txn.Txn) error {
	if c.tr == nil {
		return t.Commit()
	}
	c.tr.open(spanCommit)
	err := t.Commit()
	c.tr.close()
	c.tr.close()
	return err
}

func (c *client) fail(t *txn.Txn, err error) error {
	_ = t.Abort() // err is the failure being reported
	if c.tr != nil {
		c.tr.close()
	}
	return err
}

// invoke calls a method through the database, as the application would.
func (c *client) invoke(t *txn.Txn, obj *oodb.Object, method string, args ...any) (any, error) {
	if c.tr == nil {
		return c.p.sys.DB.Invoke(t, obj, method, args...)
	}
	c.tr.open(spanInvoke)
	res, err := c.p.sys.DB.Invoke(t, obj, method, args...)
	c.tr.close()
	return res, err
}

// access brackets the application's direct attribute reads and writes
// (everything that is not a method call) with a span in the traced pass.
func (c *client) access() {
	if c.tr != nil {
		c.tr.open(spanAccess)
	}
}

func (c *client) accessDone() {
	if c.tr != nil {
		c.tr.close()
	}
}

// exec runs script operation i with the client retry budget and records
// its latency from the first BeginTxn to the acknowledged commit.
func (c *client) exec(i int) {
	if testHook != nil {
		testHook(c, i)
	}
	start := nowNS()
	var kind int
	var err error
	for attempt := 1; ; attempt++ {
		kind, err = c.p.w.do(c, i)
		if err == nil {
			break
		}
		deadlock := errors.Is(err, txn.ErrDeadlock)
		if !deadlock && !errors.Is(err, governor.ErrOverloaded) || attempt == retryBudget {
			break
		}
		c.retries++
		if deadlock {
			c.victims++
		}
		for g := 0; g < attempt; g++ {
			runtime.Gosched()
		}
	}
	if err != nil {
		c.failed = append(c.failed, i)
		fmt.Fprintf(os.Stderr, "benchmark: client %d op %d failed: %v\n", c.id, i, err)
	} else {
		c.lat[kind] = append(c.lat[kind], int32(min(nowNS()-start, 1<<31-1)))
	}
	c.progress.Add(1)
}

// roundResult is what one round measured.
type roundResult struct {
	ops     int           // operations attempted (all clients)
	failed  int           // operations that exhausted the retry budget or hit a hard error
	wall    time.Duration // first operation sent → composers and detached rules drained
	lat     [numKinds][]int32
	react   [numPaths][]int32
	mallocs uint64
	dev     deviceCounts
	retries int64
	victims int64
}

// round scripts n operations per client, runs them with all clients
// concurrent, waits for asynchronous composition and detached rules, and
// folds the acknowledged operations into the workload's model.
func (p *plant) round(n int) *roundResult { return p.roundOf(n, len(p.clients)) }

// roundOf is round with only the first active clients sending; the
// others' scripts count as not acknowledged. After a round with idle
// clients the script generators are ahead of the model, so it must be the
// last round on its plant.
func (p *plant) roundOf(n, active int) *roundResult {
	p.w.script(p.rng, n)
	for i, c := range p.clients {
		c.n = 0
		if i < active {
			c.n = n
		}
		c.progress.Store(0)
		c.failed = c.failed[:0]
		c.retries, c.victims = 0, 0
		for k := range c.lat {
			if cap(c.lat[k]) < n {
				c.lat[k] = make([]int32, 0, n)
			}
			c.lat[k] = c.lat[k][:0]
		}
		for r := range c.react {
			// Four stamped firings per operation is the most any
			// workload produces (plant-durable's four stores).
			if len(c.react[r].buf) < 4*n {
				c.react[r].buf = make([]int32, 4*n)
			}
			c.react[r].n.Store(0)
		}
	}
	p.tally.current.Store(p)
	p.tally.attempted.Add(int64(n * active))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dev0 := p.dev.counts()

	var wg sync.WaitGroup
	start := nowNS()
	for _, c := range p.clients[:active] {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				c.exec(i)
			}
		}(c)
	}
	wg.Wait()
	p.sys.Engine.DrainComposers()
	p.sys.Engine.WaitDetached()
	wall := since(start)

	runtime.ReadMemStats(&ms1)
	res := &roundResult{
		ops:     n * active,
		wall:    wall,
		mallocs: ms1.Mallocs - ms0.Mallocs,
		dev:     p.dev.counts().sub(dev0),
	}
	failed := make([][]int, len(p.clients))
	for i, c := range p.clients {
		if i >= active {
			failed[i] = make([]int, n)
			for k := range failed[i] {
				failed[i][k] = k
			}
			continue
		}
		failed[i] = c.failed
		res.failed += len(c.failed)
		res.retries += c.retries
		res.victims += c.victims
		for k := range c.lat {
			res.lat[k] = append(res.lat[k], c.lat[k]...)
		}
		for r := range c.react {
			res.react[r] = append(res.react[r], c.react[r].samples()...)
		}
	}
	p.tally.failed.Add(int64(res.failed))
	p.w.settle(failed)
	return res
}

// unfinished reports the operations of the current round no client has
// completed — what a wedge leaves behind.
func (p *plant) unfinished() int {
	n := 0
	for _, c := range p.clients {
		n += c.n - int(c.progress.Load())
	}
	return n
}

// liveHeapMB is HeapAlloc after a forced collection, minus the bytes the
// in-memory device holds for the data file and the log: those stand in
// for a disk, not for the program's memory.
func (p *plant) liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc)
	if p.dev.mem != nil {
		heap -= p.dev.mem.heapBytes()
	}
	return float64(heap) / (1 << 20)
}

// reopen opens the database stored in dir (a crash image or a cleanly
// closed directory), times the open — recovery plus catalog scan — and
// checks the persistent oracle.
func reopen(w workload, dev *device, dir string) (openTime time.Duration, st storage.Stats, err error) {
	runtime.GC() // every open starts from the same heap state
	start := nowNS()
	db, err := oodb.Open(oodb.Options{Dir: dir, Storage: storage.Options{FS: dev}})
	openTime = since(start)
	if err != nil {
		return 0, st, fmt.Errorf("reopen %s: %w", dir, err)
	}
	defer db.Close()
	for _, cl := range w.classes() {
		if err := db.Dictionary().Register(cl); err != nil {
			return 0, st, err
		}
	}
	return openTime, db.StorageStats(), w.verifyPersistent(db)
}

var scratchSeq atomic.Int64

// scratchDir names a fresh data directory under base (the -dir flag; with
// the in-memory device the name only keys its file table).
func scratchDir(base string) string {
	return filepath.Join(base, fmt.Sprintf("d%d", scratchSeq.Add(1)))
}
