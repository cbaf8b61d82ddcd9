// Package core assembles the REACH system: the object database, the
// rule engine wired through the sentry dispatcher, and the query
// processor — the integrated architecture of the paper, in which the
// active capabilities are built into the OODBMS rather than layered
// on top of it.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/eca"
	"repro/internal/fault"
	"repro/internal/finding"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/rules/analysis"
	"repro/internal/txn"
)

// Options configure a System.
type Options struct {
	// Dir is the storage directory; empty means in-memory.
	Dir string
	// Clock is the time source (default: real time).
	Clock clock.Clock
	// DB tunes the object database.
	DB oodb.Options
	// Engine tunes the rule engine.
	Engine eca.Options
	// Governor tunes the overload governor (watermark hysteresis,
	// admission deadline, evaluation interval, or Disabled for the
	// ablation arm). Clock and Metrics are wired by Open.
	Governor governor.Options
	// StrictRules gates LoadRules on the whole-ruleset interaction
	// analysis: a source whose addition would leave the accumulated
	// rule set with unsuppressed termination, confluence-error, or
	// reachability errors is refused before anything registers.
	StrictRules bool
}

// System is a running REACH instance.
type System struct {
	DB     *oodb.DB
	Engine *eca.Engine
	Query  *query.Processor
	// Metrics is the registry every subsystem (sentry, engine,
	// transaction manager, storage) binds its counters into.
	Metrics *obs.Registry
	// Tracer retains recent event-lifecycle traces.
	Tracer *obs.Tracer
	// Build identifies the running binary (also exposed as the
	// reach_build_info gauge).
	Build obs.BuildInfo
	// Governor is the system-wide overload governor: every subsystem's
	// load gauges registered in one place, the health state machine
	// derived from them, and the admission gate new writers pass.
	Governor *governor.Governor

	strictRules bool

	// Loaded rule sources accumulate so the whole-ruleset analysis
	// sees every LoadRules call as one interacting set.
	ruleMu    sync.Mutex
	ruleSrcs  []ruleSource
	ruleLoads int
}

type ruleSource struct {
	name  string
	src   string
	decls []*rules.RuleDecl
}

// Open assembles and returns a System.
func Open(opts Options) (*System, error) {
	reg := opts.Engine.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	build := obs.RegisterBuildInfo(reg)
	fault.Instrument(reg)
	dbOpts := opts.DB
	if opts.Dir != "" {
		dbOpts.Dir = opts.Dir
	}
	if opts.Clock != nil {
		dbOpts.Clock = opts.Clock
	}
	dbOpts.Storage.Metrics = reg
	if opts.Dir != "" {
		// Persistent systems run the background checkpointer so the WAL
		// is reclaimed and restart stays fast without operator action.
		dbOpts.Storage.Checkpoint.Auto = true
		if opts.Clock != nil {
			dbOpts.Storage.Checkpoint.Clock = opts.Clock
		}
	}
	db, err := oodb.Open(dbOpts)
	if err != nil {
		return nil, err
	}
	engineOpts := opts.Engine
	engineOpts.Metrics = reg
	engine := eca.New(db, engineOpts)
	gov := newGovernor(opts, db, engine, reg)
	return &System{
		DB:          db,
		Engine:      engine,
		Query:       query.New(db, engine),
		Metrics:     reg,
		Tracer:      engine.Tracer(),
		Build:       build,
		Governor:    gov,
		strictRules: opts.StrictRules,
	}, nil
}

// newGovernor assembles the overload governor: each subsystem's load
// gauges registered with default watermarks, the enforcement hooks
// installed at the choke points (writer admission, detached spawn,
// deferred drain, trace minting), and the evaluation loop started.
// Watermarks are retunable live via Governor.SetLevels.
func newGovernor(opts Options, db *oodb.DB, engine *eca.Engine, reg *obs.Registry) *governor.Governor {
	govOpts := opts.Governor
	if govOpts.Clock == nil && opts.Clock != nil {
		govOpts.Clock = opts.Clock
	}
	govOpts.Metrics = reg
	gov := governor.New(govOpts)

	queue := engine.DetachedQueue()
	tm := db.TxnManager()
	// Visibility-only resources (zero watermarks): accounted in
	// /health but never driving the state. Dead-letter depth is
	// deliberately among them — the governor's own sheds are
	// dead-lettered, so watermarking the queue would create a
	// shed → dead-letter → degraded feedback loop that blocks
	// recovery to healthy after load drops.
	gov.Register("txn-active", tm.ActiveTopLevel, governor.Levels{})
	gov.Register("history-bytes", engine.HistoryBytes, governor.Levels{})
	gov.Register("deadletter-depth", engine.DeadLetterDepth, governor.Levels{})
	// The detached backlog degrades at one queue's worth of unfinished
	// work (the pool is saturated: shedding detached firings is
	// cheaper than queueing them into a convoy) and sheds at two.
	gov.Register("detached-backlog", engine.DetachedBacklog,
		governor.Levels{Degraded: queue, Shedding: 2 * queue})
	// Deferred work is bounded per transaction by the cascade-depth
	// guard but not across transactions; watermark the aggregate.
	gov.Register("deferred-depth", engine.DeferredDepth,
		governor.Levels{Degraded: 4 * queue, Shedding: 16 * queue})
	if opts.Dir != "" {
		// Storage backpressure: a checkpointer falling behind the write
		// rate shows up as WAL bytes past the byte trigger. Degrading
		// before the WAL-growth bound trips gives the checkpointer CPU
		// and I/O back while admitted work still completes.
		if _, trigger := db.CheckpointLag(); trigger > 0 {
			gov.Register("wal-checkpoint-lag",
				func() int64 { lag, _ := db.CheckpointLag(); return lag },
				governor.Levels{Degraded: 4 * trigger, Shedding: 16 * trigger})
		}
		gov.Register("checkpointer-degraded", func() int64 {
			if db.CheckpointHealth().Degraded {
				return 1
			}
			return 0
		}, governor.Levels{Degraded: 1})
	}

	tm.SetAdmission(gov.AdmitTxn)
	engine.SetGovernor(gov)
	gov.Start()
	return gov
}

// Admin returns the HTTP observability surface over the system's
// registry and tracer, with a JSON system view contributed by the
// engine, sentry, and storage stats, plus the fault registry's
// /failpoints arming surface.
func (s *System) Admin() *obs.Admin {
	a := obs.NewAdmin(s.Metrics, s.Tracer, func() any {
		useful, useless, potential := s.Engine.Dispatcher().Stats()
		return map[string]any{
			"engine": s.Engine.Stats(),
			"sentry": map[string]uint64{
				"useful":    useful,
				"useless":   useless,
				"potential": potential,
			},
			"storage": s.DB.StorageStats(),
		}
	})
	a.Handle("/failpoints", fault.Handler())
	a.Handle("/health", s.Governor.Handler())
	a.Handle("/rules/deadletter", deadLetterHandler(s.Engine))
	a.Handle("/rules/breakers", breakerHandler(s.Engine))
	a.Handle("/slowlog", s.Engine.SlowLog().Handler())
	a.Handle("/checkpoint", checkpointHandler(s.DB))
	return a
}

// Drain flips the rule engine into shutdown mode: new detached rule
// spawns are refused and the call waits (bounded by ctx) for every
// in-flight rule transaction. Close completes the shutdown.
func (s *System) Drain(ctx context.Context) error { return s.Engine.Drain(ctx) }

// Shutdown is the graceful-shutdown sequence, in dependency order:
// the governor refuses new admissions (so nothing races the drain),
// the supervised executor drains so in-flight detached rule work
// commits, a final checkpoint makes that work cheap to recover, and
// Close tears the system down. Every step runs even if an earlier one
// errs — a failed drain must not skip the checkpoint, and a failed
// checkpoint must not leak the engine's goroutines; the joined error
// reports whatever went wrong.
func (s *System) Shutdown(ctx context.Context) error {
	s.Governor.BeginShutdown()
	derr := s.Engine.Drain(ctx)
	cerr := s.DB.Checkpoint()
	return errors.Join(derr, cerr, s.Close())
}

// Begin starts a top-level transaction, bypassing admission control.
// Internal and read-only work uses it; client writers should go
// through BeginTxn.
func (s *System) Begin() *txn.Txn { return s.DB.Begin() }

// BeginTxn starts a top-level transaction through the governor's
// admission gate: under overload it blocks up to the admission
// deadline and then fails with governor.ErrOverloaded — the caller's
// signal to back off and retry.
func (s *System) BeginTxn() (*txn.Txn, error) { return s.DB.BeginAdmitted() }

// RegisterClass registers a class descriptor in the data dictionary.
func (s *System) RegisterClass(c *oodb.Class) error { return s.DB.Dictionary().Register(c) }

// LoadRules parses and registers a REACH rule-language source. Every
// load joins the accumulated rule set for whole-ruleset interaction
// analysis: under Options.StrictRules a load whose addition leaves
// the set with analysis errors is refused wholesale; otherwise the
// analysis only maintains the engine's static cascade-depth bound
// (cleared while the set has a termination cycle, so the configured
// ceiling alone bounds it).
func (s *System) LoadRules(src string) (*rules.Loaded, error) {
	decls, err := rules.Parse(src)
	if err != nil {
		return nil, err
	}
	// ruleMu guards only the source-list snapshot and commit; the
	// analysis, registration, and engine calls run outside it
	// (lockdiscipline: no cross-package call under a held mutex).
	s.ruleMu.Lock()
	s.ruleLoads++
	name := fmt.Sprintf("<load-%d>", s.ruleLoads)
	snapshot := append([]ruleSource(nil), s.ruleSrcs...)
	s.ruleMu.Unlock()
	next := ruleSource{name: name, src: src, decls: decls}
	res := s.analyze(append(snapshot, next))
	if s.strictRules && res.HasErrors() {
		var msgs []string
		for _, f := range res.Findings {
			if f.Severity == finding.Error {
				msgs = append(msgs, f.String())
			}
		}
		return nil, fmt.Errorf("core: rule-set analysis rejects load:\n%s", strings.Join(msgs, "\n"))
	}
	loaded, err := rules.Load(s.Engine, src)
	if err != nil {
		return nil, err
	}
	s.ruleMu.Lock()
	s.ruleSrcs = append(s.ruleSrcs, next)
	s.ruleMu.Unlock()
	if len(res.Cycles) == 0 && res.DepthBound > 0 {
		s.Engine.SetCascadeBound(res.DepthBound)
	} else {
		s.Engine.SetCascadeBound(0)
	}
	return loaded, nil
}

// RuleAnalysis runs the whole-ruleset interaction analysis over every
// rule source loaded so far, against the live data dictionary (closed
// world): the triggering graph, termination cycles, confluence pairs,
// and unreachable rules.
func (s *System) RuleAnalysis() *analysis.Result {
	s.ruleMu.Lock()
	snapshot := append([]ruleSource(nil), s.ruleSrcs...)
	s.ruleMu.Unlock()
	return s.analyze(snapshot)
}

// analyze runs the interaction analysis over the given sources
// against the dictionary world.
func (s *System) analyze(srcs []ruleSource) *analysis.Result {
	az := analysis.New()
	for _, rs := range srcs {
		az.Add(rs.name, rs.src, rs.decls)
	}
	return az.Run(s.ruleWorld())
}

// ruleWorld closes the analysis world over the registered schema:
// every Class.method and Class.attr the dictionary knows.
func (s *System) ruleWorld() *analysis.World {
	w := &analysis.World{Methods: make(map[string]bool), Attrs: make(map[string]bool)}
	dict := s.DB.Dictionary()
	for _, name := range dict.Classes() {
		c, err := dict.Lookup(name)
		if err != nil {
			continue
		}
		for _, m := range c.MethodNames() {
			w.Methods[name+"."+m] = true
		}
		for _, a := range c.Attrs() {
			w.Attrs[name+"."+a.Name] = true
		}
	}
	return w
}

// Close shuts the engine's background goroutines down and closes the
// database.
func (s *System) Close() error {
	s.Engine.WaitDetached()
	s.Engine.Close()
	s.Governor.Stop()
	return s.DB.Close()
}
