// The supervised executor for detached rule work. The paper frames
// detached rules as independent top-level transactions whose failures
// must be contained and reported (§3.2, HiPAC); the naive reading —
// one unbounded goroutine per firing — spawns itself to death under
// load and silently drops deadlock aborts. This executor bounds the
// concurrency with a worker pool and a queue, retries retriable
// aborts with exponential backoff, enforces per-rule deadlines, and
// parks permanently failing rules (a panicking one among them, which
// Engine.fire turned into an abort) behind a per-rule circuit breaker
// with a dead-letter queue for inspection.
package eca

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/event"
	"repro/internal/governor"
	"repro/internal/txn"
)

// deadLetterCapacity bounds the dead-letter ring.
const deadLetterCapacity = 128

// Typed executor errors.
var (
	// ErrDraining rejects detached spawns after Drain or Close began.
	ErrDraining = errors.New("eca: executor draining")
	// ErrRuleDeadline aborts a rule transaction whose attempt exceeded
	// its deadline.
	ErrRuleDeadline = errors.New("eca: rule deadline exceeded")
	// ErrBreakerOpen rejects a spawn whose rule's circuit breaker is
	// open.
	ErrBreakerOpen = errors.New("eca: rule circuit breaker open")
)

// DeadLetter records one rule firing the engine gave up on: shed by
// the overload governor, rejected at an open breaker, or failed after
// its retry budget. Trace is the lifecycle trace of the triggering
// occurrence (0 when its minting was shed): for a firing that ran, it
// holds the firing's phases, its abort among them.
type DeadLetter struct {
	Rule     string    `json:"rule"`
	EventKey string    `json:"event"`
	Seq      uint64    `json:"seq"`
	Trace    uint64    `json:"trace,omitempty"`
	Time     time.Time `json:"time"`
	Err      string    `json:"error"`
	Attempts int       `json:"attempts"`
	Reason   string    `json:"reason"`
}

// BreakerState is an inspectable snapshot of one rule's circuit
// breaker.
type BreakerState struct {
	Rule        string    `json:"rule"`
	Open        bool      `json:"open"`
	Consecutive int       `json:"consecutive"`
	Since       time.Time `json:"since"`
	LastErr     string    `json:"last_error,omitempty"`
}

// breaker tracks consecutive permanent failures of one rule.
type breaker struct {
	consecutive int
	open        bool
	since       time.Time
	lastErr     string
}

// ruleJob is one detached firing queued for the worker pool. For the
// parallel- and exclusive-causal modes the rule transaction and its
// dependency edges were created synchronously at firing time (§3.2:
// the rule "may begin in parallel", so the dependency must hold no
// matter how the scheduler interleaves the trigger's resolution);
// retries recreate them from the triggering instance. Sequential-causal
// jobs carry no transaction: they may not even initiate until the
// triggers commit, and until then they wait parked on a trigger's
// engine state, holding no worker (route).
type ruleJob struct {
	rule *Rule
	in   *event.Instance
	mode Coupling
	t    *txn.Txn // first-attempt transaction (nil for sequential-causal)
	veto error    // causal veto discovered at firing time
}

// executor is the bounded worker pool detached rule firings run on.
// All state is mutex-guarded (metrics live in obs; rawatomics keeps
// raw atomics out of engine code).
type executor struct {
	e     *Engine
	queue chan ruleJob
	// drainCh closes when draining begins, unblocking submitters
	// parked on a full queue and workers parked in a backoff sleep.
	drainCh chan struct{}
	workers sync.WaitGroup

	// mu orders acceptance against draining; its cond wakes awaitIdle
	// when the reach_executor_inflight gauge (accepted jobs not yet
	// finished, queued or running) drops.
	mu        sync.Mutex
	cond      *sync.Cond
	draining  bool
	jitterSeq uint64
	breakers  map[string]*breaker
	dead      []DeadLetter
}

func newExecutor(e *Engine) *executor {
	x := &executor{
		e:        e,
		queue:    make(chan ruleJob, e.opts.Queue),
		drainCh:  make(chan struct{}),
		breakers: make(map[string]*breaker),
	}
	x.cond = sync.NewCond(&x.mu)
	x.workers.Add(e.opts.Workers)
	for i := 0; i < e.opts.Workers; i++ {
		go x.worker()
	}
	return x
}

// submit reserves an in-flight slot and enqueues the job, or parks a
// sequential-causal one until its triggers end. The reservation
// happens before the channel send so WaitDetached and Drain observe
// the job the moment the raising goroutine returns — no spawn can be
// lost between acceptance and execution. A full queue is backpressure:
// the raiser parks until a worker frees a slot.
func (x *executor) submit(job ruleJob) error {
	x.mu.Lock()
	if x.draining {
		x.mu.Unlock()
		return ErrDraining
	}
	x.e.met.execInflight.Add(1)
	x.mu.Unlock()
	if job.mode == DetachedSequentialCausal {
		return x.route(job, x.drainCh)
	}
	return x.enqueue(job, x.drainCh)
}

// enqueue sends a reserved job to the workers. A close of stop gives
// up with ErrDraining; a nil stop waits for queue room however long
// draining takes.
func (x *executor) enqueue(job ruleJob, stop <-chan struct{}) error {
	g := x.e.gov
	for {
		// The raiser may be parked here while holding its
		// transaction's locks — locks the queued detached rules may
		// need to run. The governor breaks that cycle: every state
		// transition wakes the park to re-check the shed ladder, so
		// once the backlog (which counts this parked reservation)
		// degrades the system, the spawn sheds instead of waiting.
		// Channel fetch precedes the ladder check so a transition
		// between the two cannot be missed. Without a governor
		// stateCh is nil, nothing sheds, and this is plain bounded
		// backpressure.
		stateCh := g.StateChanged()
		if g.ShouldShed(governor.ClassDetached) {
			x.jobDone()
			return governor.ErrOverloaded
		}
		select {
		case x.queue <- job:
			return nil
		case <-stop:
			x.jobDone()
			return ErrDraining
		case <-stateCh:
		}
	}
}

// route moves a reserved sequential-causal job on by its triggers'
// outcomes (§3.2, Table 1): while one is still active the job parks
// on it; when one aborted the job is dropped silently; once all
// committed it is enqueued, the committers' locks released by then.
func (x *executor) route(job ruleJob, stop <-chan struct{}) error {
	for {
		var open *txn.Txn
		aborted := false
		triggers(job.in, func(t *txn.Txn) bool {
			switch t.Status() {
			case txn.Active:
				if open == nil {
					open = t
				}
			case txn.Aborted:
				aborted = true
				return false
			}
			return true
		})
		switch {
		case aborted:
			x.jobDone()
			return nil
		case open == nil:
			return x.enqueue(job, stop)
		case park(open, job):
			return nil
		}
		// open resolved after its status was read: look again.
	}
}

// park queues job on the top-level transaction t until t ends, unless
// it already ended. The status is read after the state is attached: a
// t still active then ends later, and its end (endTxn) finds the state
// and either takes the job or has handed the state on first, which
// the owner check sees.
func park(t *txn.Txn, job ruleJob) bool {
	st := ensureTxnState(t)
	if t.Status() != txn.Active {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.owner != t {
		return false
	}
	st.parked = append(st.parked, job)
	return true
}

// resume routes the sequential-causal jobs that were parked on a
// top-level transaction that just ended: on to the next open trigger,
// to the workers, or, after an abort, away. A resumed job was accepted
// before draining began, so it waits for queue room rather than giving
// up.
func (x *executor) resume(parked []ruleJob) {
	for _, job := range parked {
		if x.route(job, nil) != nil {
			// Shed out of a blocked park: the system degraded while
			// this resumed job waited for queue space.
			x.e.shed(governor.ClassDetached, job.rule, job.in)
		}
	}
}

// jobDone releases an in-flight reservation and wakes waiters. Taking
// the mutex after the release serializes with a waiter between its
// gauge check and its park, so the broadcast cannot be lost.
func (x *executor) jobDone() {
	x.e.met.execInflight.Add(-1)
	x.mu.Lock()
	x.mu.Unlock()
	x.cond.Broadcast()
}

func (x *executor) worker() {
	defer x.workers.Done()
	for job := range x.queue {
		x.runJob(job)
		x.jobDone()
	}
}

// drain flips the executor into draining mode (idempotent) and wakes
// anything parked on the queue.
func (x *executor) drain() {
	x.mu.Lock()
	if !x.draining {
		x.draining = true
		close(x.drainCh)
	}
	x.mu.Unlock()
}

// awaitIdle blocks until every accepted job has finished or ctx
// expires.
func (x *executor) awaitIdle(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		// Taking the mutex serializes with a waiter between its
		// ctx.Err check and its park, so the broadcast cannot be lost.
		x.mu.Lock()
		x.mu.Unlock()
		x.cond.Broadcast()
	})
	defer stop()
	x.mu.Lock()
	defer x.mu.Unlock()
	for x.e.met.execInflight.Value() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		x.cond.Wait() //lint:allow lockdiscipline sync.Cond.Wait atomically releases the mutex while parked
	}
	return nil
}

// shutdown stops the workers. The caller must have drained first so
// no submitter can race the queue close.
func (x *executor) shutdown() {
	close(x.queue)
	x.workers.Wait()
}

// breakerOpen reports whether the rule's circuit breaker is open.
func (x *executor) breakerOpen(rule string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	b := x.breakers[rule]
	return b != nil && b.open
}

// recordSuccess closes the failure streak on a successful attempt.
func (x *executor) recordSuccess(rule string) {
	x.mu.Lock()
	if b := x.breakers[rule]; b != nil {
		b.consecutive = 0
	}
	x.mu.Unlock()
}

// recordFailure counts a permanent failure against the rule's
// breaker, trips it at the threshold, and dead-letters the firing.
func (x *executor) recordFailure(r *Rule, in *event.Instance, attempts int, err error, reason string) {
	threshold := ruleSetting(r.Breaker, breakerThreshold)
	now := x.e.clk.Now()
	x.mu.Lock()
	b := x.breakers[r.Name]
	if b == nil {
		b = &breaker{}
		x.breakers[r.Name] = b
	}
	b.consecutive++
	b.lastErr = err.Error()
	tripped := false
	if threshold > 0 && !b.open && b.consecutive >= threshold {
		b.open = true
		b.since = now
		tripped = true
	}
	x.mu.Unlock()
	if tripped {
		x.e.met.breakerTrips.Inc()
		x.e.met.breakerOpen.Add(1)
	}
	x.addDeadLetter(r, in, attempts, err, reason)
}

// addDeadLetter appends to the bounded dead-letter ring.
func (x *executor) addDeadLetter(r *Rule, in *event.Instance, attempts int, err error, reason string) {
	dl := DeadLetter{
		Rule:     r.Name,
		EventKey: r.EventKey,
		Seq:      in.Seq,
		Trace:    in.Trace,
		Time:     x.e.clk.Now(),
		Err:      err.Error(),
		Attempts: attempts,
		Reason:   reason,
	}
	x.mu.Lock()
	x.dead = append(x.dead, dl)
	if over := len(x.dead) - deadLetterCapacity; over > 0 {
		x.dead = append(x.dead[:0:0], x.dead[over:]...)
	}
	depth := len(x.dead)
	x.mu.Unlock()
	x.e.met.deadLetters.Inc()
	x.e.met.deadDepth.Set(int64(depth))
}

// evictRule garbage-collects executor state keyed by an unloaded
// rule's name: its breaker record and its dead-letter entries. A
// long-lived process with rule churn would otherwise leak breaker
// entries, and a replacement rule registered under the same name
// would inherit its predecessor's failure streak.
func (x *executor) evictRule(name string) {
	x.mu.Lock()
	b := x.breakers[name]
	hadBreaker := b != nil
	wasOpen := hadBreaker && b.open
	delete(x.breakers, name)
	kept := x.dead[:0]
	evicted := 0
	for _, dl := range x.dead {
		if dl.Rule == name {
			evicted++
			continue
		}
		kept = append(kept, dl)
	}
	x.dead = kept
	depth := len(x.dead)
	x.mu.Unlock()
	if wasOpen {
		x.e.met.breakerOpen.Add(-1)
	}
	if hadBreaker {
		x.e.met.breakerEvicted.Inc()
	}
	if evicted > 0 {
		x.e.met.deadEvicted.Add(uint64(evicted))
		x.e.met.deadDepth.Set(int64(depth))
	}
}

// runJob drives one detached firing through its attempt loop:
// (re-)establish the causal preconditions, run the attempt under
// deadline and panic supervision, classify the failure, and either
// back off and retry or feed the breaker and the dead-letter queue.
func (x *executor) runJob(job ruleJob) {
	e := x.e
	r := job.rule
	maxAttempts := 1 + ruleSetting(r.Retries, ruleRetries)
	start := e.after(job.in.Time)
	t, veto := job.t, job.veto
	var err error
	attempt := 0
	for {
		attempt++
		if t == nil {
			// A sequential-causal job's first attempt, or a retry: a
			// fresh rule transaction with fresh dependency edges
			// against whatever the triggers have become.
			t, veto = e.detachedTxn(job.mode, job.in, r.Name)
		}
		if veto != nil {
			// A trigger already resolved the wrong way. Not a failure
			// of the rule: abort silently, as Table 1 prescribes.
			_ = t.AbortWith(veto)
			return
		}
		err = x.runAttempt(t, r, job.in)
		t = nil
		if err == nil {
			e.met.latDetached.Observe(e.clk.Since(start))
			x.recordSuccess(r.Name)
			return
		}
		if errors.Is(err, txn.ErrDependencyFailed) {
			// Causal dependency resolved against the rule at commit:
			// normal §3.2 operation, not a rule failure.
			e.met.latDetached.Observe(e.clk.Since(start))
			return
		}
		if errors.Is(err, ErrRuleDeadline) {
			e.met.deadlines.Inc()
			break
		}
		if !txn.IsRetriable(err) || attempt >= maxAttempts {
			break
		}
		e.met.retries.Inc()
		if !x.backoff(attempt) {
			break // draining: give up the remaining budget
		}
	}
	e.met.latDetached.Observe(e.clk.Since(start))
	x.recordFailure(r, job.in, attempt, err, failReason(err))
}

// failReason buckets a permanent failure for the dead-letter record.
func failReason(err error) string {
	switch {
	case errors.Is(err, ErrRuleDeadline):
		return "deadline"
	case txn.IsRetriable(err):
		return "retries-exhausted"
	default:
		return "failed"
	}
}

// runAttempt fires r once in t under the rule's deadline. On expiry
// the watchdog cancels the context handed to the rule body via
// RuleCtx.Context, with ErrRuleDeadline as its cause, and aborts t,
// which cancels its lock waits.
func (x *executor) runAttempt(t *txn.Txn, r *Rule, in *event.Instance) error {
	e := x.e
	ctx := context.Background()
	if d := r.Timeout; d > 0 {
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		timer := e.clk.AfterFunc(d, func() {
			cancel(ErrRuleDeadline)
			_ = t.AbortWith(ErrRuleDeadline)
		})
		defer timer.Stop()
	}
	mark := e.after(in.Time)
	sb := spanBuf{e: e}
	var rc RuleCtx
	err := e.fire(ctx, t, &queued{rule: r, in: in}, &rc, &sb, &mark)
	sb.flush()
	if err != nil && errors.Is(context.Cause(ctx), ErrRuleDeadline) {
		// The watchdog abort surfaces as whatever operation the rule
		// body was in (ErrNotActive, a cancelled lock wait, ...);
		// reclassify it so the deadline is reported, not the symptom.
		return fmt.Errorf("eca: rule %s: %w", r.Name, ErrRuleDeadline)
	}
	return err
}

// backoff sleeps exponentially (with deterministic jitter) before a
// retry; it returns false when draining began, telling the caller to
// abandon the retry budget.
func (x *executor) backoff(attempt int) bool {
	// Double up to the cap, never past it: a shift by attempt-1 would
	// overflow for a large retry budget.
	d := retryBackoff
	for i := 1; i < attempt && d < retryBackoffMax; i++ {
		d *= 2
	}
	d = min(d, retryBackoffMax)
	x.mu.Lock()
	x.jitterSeq++
	z := x.jitterSeq + 0x9e3779b97f4a7c15
	x.mu.Unlock()
	// splitmix64 finalizer: deterministic, dependency-free jitter.
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if span := uint64(d / 4); span > 0 {
		d += time.Duration(z % span)
	}
	select {
	case <-x.e.clk.After(d):
		return true
	case <-x.drainCh:
		return false
	}
}

// --- engine-side API ---

// spawnDetached routes a detached firing onto the executor: breaker
// check, synchronous transaction + dependency setup for the modes
// that "may begin in parallel" (§3.2), then admission to the queue.
// Only accepted firings count as fired.
func (e *Engine) spawnDetached(r *Rule, in *event.Instance) {
	x := e.exec
	// The governor's first shed rung: from the degraded state on,
	// detached firings are dropped before any work is reserved.
	// Detached rules are independent top-level transactions (Table 1),
	// so dropping one never changes the triggering transaction's
	// outcome.
	if e.gov.ShouldShed(governor.ClassDetached) {
		e.shed(governor.ClassDetached, r, in)
		return
	}
	in.Retain() // the detached worker reads it after the raiser returns
	if x.breakerOpen(r.Name) {
		e.met.rejBreaker.Inc()
		x.addDeadLetter(r, in, 0, ErrBreakerOpen, "breaker-open")
		return
	}
	mode := r.condMode()
	job := ruleJob{rule: r, in: in, mode: mode}
	if mode != DetachedSequentialCausal {
		job.t, job.veto = e.detachedTxn(mode, in, r.Name)
	}
	if err := x.submit(job); err != nil {
		if job.t != nil {
			_ = job.t.AbortWith(err)
		}
		if errors.Is(err, governor.ErrOverloaded) {
			// Shed out of a blocked park: the system degraded while
			// this spawn waited for queue space.
			e.shed(governor.ClassDetached, r, in)
		} else {
			e.met.rejDraining.Inc()
		}
		return
	}
	e.met.firedDetached.Inc()
}

// shed records one firing the governor shed: counted on the governor
// and in reach_rule_rejected_total, and dead-lettered so that nothing
// disappears silently.
func (e *Engine) shed(c governor.Class, r *Rule, in *event.Instance) {
	e.gov.NoteShed(c)
	e.met.rejGovernor.Inc()
	e.exec.addDeadLetter(r, in, 0, governor.ErrOverloaded, "governor-shed")
}

// detachedTxn begins a rule transaction and registers the causal
// dependency edges against every transaction the triggering event
// originated from (Table 1: "all commit" / "all abort"): an edge to
// each trigger still active, a veto when one already resolved the
// wrong way.
func (e *Engine) detachedTxn(mode Coupling, in *event.Instance, ruleName string) (*txn.Txn, error) {
	t := e.beginRuleTxn()
	want := txn.Committed
	switch mode {
	case DetachedParallelCausal:
	case DetachedExclusiveCausal:
		want = txn.Aborted
	default:
		return t, nil
	}
	var veto error
	triggers(in, func(trig *txn.Txn) bool {
		switch st := trig.Status(); {
		case st == txn.Active && want == txn.Committed:
			t.RequireCommit(trig)
		case st == txn.Active:
			t.RequireAbort(trig)
		case st != want:
			veto = fmt.Errorf("eca: rule %s: trigger txn %d %v", ruleName, trig.ID(), st)
		}
		return true
	})
	return t, veto
}

// triggers calls visit on the top-level transaction of each constituent
// of in, read through the constituent's Origin, until visit returns
// false; a run of constituents from one transaction visits it once.
// The outcome lives on the transaction itself, so it is known however
// long ago the transaction resolved. Temporal constituents have no
// Origin and contribute nothing.
func triggers(in *event.Instance, visit func(*txn.Txn) bool) {
	var last *txn.Txn
	in.Leaves(func(p *event.Instance) bool {
		t, ok := p.Origin.(*txn.Txn)
		if !ok {
			return true
		}
		if t = t.Top(); t == last {
			return true
		}
		last = t
		return visit(t)
	})
}

// The detached-rule settings a rule's own clauses override
// (Rule.Retries, Rule.Breaker); a rule has no deadline unless its
// Timeout sets one.
const (
	// ruleRetries is the retry budget after a retriable abort
	// (deadlock, cancelled lock wait).
	ruleRetries = 3
	// breakerThreshold trips a rule's circuit breaker after this many
	// consecutive permanent failures, parking the rule until re-armed.
	breakerThreshold = 5
	// retryBackoff is the first retry's backoff; each further retry
	// doubles it up to retryBackoffMax, plus deterministic jitter.
	retryBackoff    = 2 * time.Millisecond
	retryBackoffMax = 250 * time.Millisecond
)

// ruleSetting resolves one of a rule's executor settings (retry
// budget, breaker threshold): the rule's own value, else the default;
// negative disables, which resolves to 0.
func ruleSetting(rule, def int) int {
	if rule != 0 {
		return max(rule, 0)
	}
	return def
}

// WaitDetached blocks until every accepted detached rule execution
// has finished. Tests and the bench harness use it as a barrier.
func (e *Engine) WaitDetached() {
	_ = e.exec.awaitIdle(context.Background()) // a context that never ends: no error
}

// Drain flips the engine into shutdown mode: new detached spawns are
// refused with ErrDraining, and the call blocks until every accepted
// firing has finished or ctx expires. Draining is sticky; Close
// completes the shutdown.
func (e *Engine) Drain(ctx context.Context) error {
	e.exec.drain()
	return e.exec.awaitIdle(ctx)
}

// DeadLetters returns the dead-letter queue, oldest first.
func (e *Engine) DeadLetters() []DeadLetter {
	x := e.exec
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]DeadLetter(nil), x.dead...)
}

// ClearDeadLetters empties the dead-letter queue and reports how many
// entries were dropped.
func (e *Engine) ClearDeadLetters() int {
	x := e.exec
	x.mu.Lock()
	n := len(x.dead)
	x.dead = nil
	x.mu.Unlock()
	e.met.deadDepth.Set(0)
	return n
}

// Breakers snapshots every rule breaker, sorted by rule name.
func (e *Engine) Breakers() []BreakerState {
	x := e.exec
	x.mu.Lock()
	out := make([]BreakerState, 0, len(x.breakers))
	for name, b := range x.breakers {
		out = append(out, BreakerState{
			Rule:        name,
			Open:        b.open,
			Consecutive: b.consecutive,
			Since:       b.since,
			LastErr:     b.lastErr,
		})
	}
	x.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// RearmRule closes the rule's circuit breaker and resets its failure
// streak so the rule fires again. It reports whether the rule had a
// breaker record.
func (e *Engine) RearmRule(name string) bool {
	x := e.exec
	x.mu.Lock()
	b := x.breakers[name]
	found := b != nil
	wasOpen := found && b.open
	if found {
		b.open = false
		b.consecutive = 0
	}
	x.mu.Unlock()
	if wasOpen {
		e.met.breakerOpen.Add(-1)
	}
	return found
}
