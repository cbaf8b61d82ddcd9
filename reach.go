// Package reach is the public API of the REACH active OODBMS — a Go
// reproduction of the system described in Buchmann, Zimmermann,
// Blakeley & Wells, "Building an Integrated Active OODBMS:
// Requirements, Architecture, and Design Decisions" (ICDE 1995).
//
// REACH integrates event detection, event composition and ECA-rule
// execution with a full object-oriented DBMS: a slotted-page storage
// manager with write-ahead logging and crash recovery, an object model
// with classes, typed attributes and registered methods, flat and
// closed nested transactions with a strict-2PL lock manager, a sentry
// dispatcher that traps method invocations and state changes, an
// event algebra (sequence, conjunction, disjunction, negation,
// closure, history) with the SNOOP consumption policies, six rule
// coupling modes, and an OQL-flavoured query processor whose indexes
// are maintained by ECA rules.
//
// Quickstart:
//
//	sys, err := reach.Open(reach.Options{Dir: "/tmp/plantdb"})
//	...
//	river := reach.NewClass("River", reach.Attr{Name: "level", Type: reach.TInt})
//	river.Monitored = true
//	river.Method("updateWaterLevel", func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
//	    return nil, ctx.Set(self, "level", args[0])
//	})
//	sys.RegisterClass(river)
//	sys.LoadRules(`rule Low { decl River *r, int x;
//	                          event after r->updateWaterLevel(x);
//	                          cond imm x < 37;
//	                          action imm abort "water level critical"; };`)
package reach

import (
	"repro/internal/algebra"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/finding"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/rules/analysis"
	"repro/internal/txn"
)

// System is a running REACH instance: database, rule engine, queries.
type System = core.System

// Observability surface (metrics registry, lifecycle traces, admin
// HTTP endpoints) — see System.Metrics, System.Tracer, System.Admin.
type (
	// Registry is the shared metrics registry.
	Registry = obs.Registry
	// Tracer retains recent event-lifecycle traces.
	Tracer = obs.Tracer
	// Trace is one end-to-end event lifecycle record.
	Trace = obs.Trace
	// Span is one stage of a trace.
	Span = obs.Span
)

// Options configure Open.
type Options = core.Options

// EngineOptions tune the rule engine (Options.Engine), including the
// supervised executor for detached rule work.
type EngineOptions = eca.Options

// Open assembles a REACH system.
func Open(opts Options) (*System, error) { return core.Open(opts) }

// Object model.
type (
	// Class describes an application class: attributes and methods.
	Class = oodb.Class
	// Attr declares one typed attribute.
	Attr = oodb.Attr
	// Object is an instance of a class.
	Object = oodb.Object
	// OID is an object identifier.
	OID = oodb.OID
	// Ctx is the invocation context passed to method bodies.
	Ctx = oodb.Ctx
	// MethodImpl is a registered method body.
	MethodImpl = oodb.MethodImpl
	// Txn is a transaction (top-level or nested).
	Txn = txn.Txn
)

// NewClass creates a class descriptor.
func NewClass(name string, attrs ...Attr) *Class { return oodb.NewClass(name, attrs...) }

// Attribute types.
const (
	TInt    = oodb.TInt
	TFloat  = oodb.TFloat
	TString = oodb.TString
	TBool   = oodb.TBool
	TRef    = oodb.TRef
	TTime   = oodb.TTime
	TBytes  = oodb.TBytes
	TList   = oodb.TList
)

// Rules and coupling modes.
type (
	// Rule is an ECA rule registered programmatically.
	Rule = eca.Rule
	// RuleCtx is passed to rule conditions and actions.
	RuleCtx = eca.RuleCtx
	// Coupling is a rule execution mode relative to the trigger.
	Coupling = eca.Coupling
	// LoadedRules tracks a rule set loaded from the rule language.
	LoadedRules = rules.Loaded
	// DeadLetter is one rule firing the engine gave up on.
	DeadLetter = eca.DeadLetter
	// BreakerState is a snapshot of one rule's circuit breaker.
	BreakerState = eca.BreakerState
)

// Overload governor: system-wide resource accounting, the
// healthy → degraded → shedding → read-only state machine, writer
// admission control, and the /health contract (see System.Governor).
type (
	// Governor is the system-wide overload governor.
	Governor = governor.Governor
	// GovernorOptions tune the governor (Options.Governor).
	GovernorOptions = governor.Options
	// GovernorLevels are one resource's watermarks.
	GovernorLevels = governor.Levels
	// HealthState is a rung on the governor's health ladder.
	HealthState = governor.State
)

// Governor health states, healthiest first.
const (
	Healthy  = governor.Healthy
	Degraded = governor.Degraded
	Shedding = governor.Shedding
	ReadOnly = governor.ReadOnly
)

// Supervised-executor and governor errors.
var (
	// ErrOverloaded rejects a new writer (System.BeginTxn) under
	// overload: back off and retry.
	ErrOverloaded = governor.ErrOverloaded
	// ErrShutdown rejects new writers once graceful shutdown began.
	ErrShutdown = governor.ErrShutdown
	// ErrDraining rejects detached spawns after Drain or Close began.
	ErrDraining = eca.ErrDraining
	// ErrRuleDeadline aborts a rule attempt that exceeded its deadline.
	ErrRuleDeadline = eca.ErrRuleDeadline
	// ErrBreakerOpen rejects a spawn whose rule's breaker is open.
	ErrBreakerOpen = eca.ErrBreakerOpen
	// ErrDeadlock is the transaction manager's deadlock-victim error;
	// the executor treats it as retriable (see IsRetriable).
	ErrDeadlock = txn.ErrDeadlock
)

// IsRetriable reports whether a transaction error is a transient
// scheduling failure (deadlock victim, cancelled lock wait) that a
// fresh attempt may not hit again.
func IsRetriable(err error) bool { return txn.IsRetriable(err) }

// The six REACH coupling modes (paper §3.2).
const (
	Immediate                = eca.Immediate
	Deferred                 = eca.Deferred
	Detached                 = eca.Detached
	DetachedParallelCausal   = eca.DetachedParallelCausal
	DetachedSequentialCausal = eca.DetachedSequentialCausal
	DetachedExclusiveCausal  = eca.DetachedExclusiveCausal
)

// Event specifications.
type (
	// MethodSpec matches method invocations.
	MethodSpec = event.MethodSpec
	// StateSpec matches attribute changes.
	StateSpec = event.StateSpec
	// TxnSpec matches flow-control events.
	TxnSpec = event.TxnSpec
	// TemporalSpec matches points in time.
	TemporalSpec = event.TemporalSpec
	// Instance is one event occurrence.
	Instance = event.Instance
)

// Method event positions, transaction phases and temporal kinds.
const (
	Before = event.Before
	After  = event.After

	BOT      = event.BOT
	EOT      = event.EOT
	OnCommit = event.Commit
	OnAbort  = event.Abort

	Absolute      = event.Absolute
	Relative      = event.Relative
	Periodic      = event.Periodic
	MilestoneKind = event.MilestoneKind
)

// TxnStatus is a transaction outcome.
type TxnStatus = txn.Status

// Transaction outcomes.
const (
	TxnActive    = txn.Active
	TxnCommitted = txn.Committed
	TxnAborted   = txn.Aborted
)

// Event algebra.
type (
	// Composite declares a named composite event.
	Composite = algebra.Composite
	// Expr is an event-algebra expression node.
	Expr = algebra.Expr
	// Prim matches a primitive event spec key.
	Prim = algebra.Prim
	// Seq matches sub-events in order.
	Seq = algebra.Seq
	// Conj matches sub-events in any order.
	Conj = algebra.Conj
	// Disj matches any sub-event.
	Disj = algebra.Disj
	// Neg is non-occurrence.
	Neg = algebra.Neg
	// Closure collapses occurrences, signalled at end of life-span.
	Closure = algebra.Closure
	// History matches after N occurrences.
	History = algebra.History
	// Policy is a consumption policy.
	Policy = algebra.Policy
	// Scope is a composite life-span rule.
	Scope = algebra.Scope
)

// Consumption policies (SNOOP contexts, paper §3.4) and scopes (§3.3).
const (
	Recent     = algebra.Recent
	Chronicle  = algebra.Chronicle
	Continuous = algebra.Continuous
	Cumulative = algebra.Cumulative

	ScopeTransaction = algebra.ScopeTransaction
	ScopeGlobal      = algebra.ScopeGlobal
)

// Queries.
type (
	// Pred is a query predicate.
	Pred = query.Pred
	// HashIndex is a rule-maintained equality index.
	HashIndex = query.HashIndex
)

// Query comparison operators.
const (
	Eq = query.Eq
	Ne = query.Ne
	Lt = query.Lt
	Le = query.Le
	Gt = query.Gt
	Ge = query.Ge
)

// Clocks.
type (
	// Clock is the engine's time source. An implementation provides
	// Now, Since (the engine derives every instant after an
	// occurrence's time with it), After and AfterFunc.
	Clock = clock.Clock
	// VirtualClock is a deterministic clock driven by Advance.
	VirtualClock = clock.Virtual
)

// NewVirtualClock returns a deterministic clock for tests, examples
// and benchmarks.
var NewVirtualClock = clock.NewVirtual

// NewRealClock returns the wall-clock time source.
var NewRealClock = clock.NewReal

// RuleDecl is one parsed rule declaration.
type RuleDecl = rules.RuleDecl

// ParseRules parses rule-language source without registering anything
// (syntax checking, e.g. for the rulec tool).
func ParseRules(src string) ([]*rules.RuleDecl, error) { return rules.Parse(src) }

// RuleVetter accumulates rule names across files so duplicate
// definitions are caught over a whole rule set.
type RuleVetter = rules.Vetter

// NewRuleVetter returns a vetter for a multi-file rule set.
var NewRuleVetter = rules.NewVetter

// VetRules checks parsed rules for semantic errors the parser cannot
// see: Table 1-invalid coupling/category pairs, cross-transaction
// composites without validity, unknown consumption policies, and
// undeclared variable references.
func VetRules(file string, decls []*rules.RuleDecl) []RuleFinding { return rules.Vet(file, decls) }

// Whole-ruleset interaction analysis: the triggering graph connecting
// rules through the events their actions raise, with termination
// (cycle detection, static cascade-depth bound), confluence
// (order-dependent equal-priority pairs), and reachability (rules
// whose event can never be raised) checks. Embedders can gate rule
// registration on RuleAnalysis.HasErrors before calling LoadRules.
type (
	// RuleAnalyzer accumulates rule files and analyzes them as one set.
	RuleAnalyzer = analysis.Analyzer
	// RuleAnalysis is the outcome: graph, findings, cycles, depth bound.
	RuleAnalysis = analysis.Result
	// RuleFinding is one diagnostic of VetRules or the analysis.
	RuleFinding = finding.Finding
	// RuleGraph is the triggering graph (DOT-exportable).
	RuleGraph = analysis.Graph
	// RuleWorld closes the analysis world to a known schema; nil means
	// any method or attribute may be raised by application code.
	RuleWorld = analysis.World
	// RuleCycle is one termination cycle through the triggering graph.
	RuleCycle = analysis.Cycle
	// RuleSeverity ranks findings.
	RuleSeverity = finding.Severity
)

// Finding severities.
const (
	RuleWarning = finding.Warning
	RuleError   = finding.Error
)

// NewRuleAnalyzer returns an empty whole-ruleset analyzer.
var NewRuleAnalyzer = analysis.New

// AnalyzeRules analyzes a single rule file against an optional closed
// world (nil = open world).
func AnalyzeRules(file, src string, decls []*rules.RuleDecl, w *RuleWorld) *RuleAnalysis {
	return analysis.Analyze(file, src, decls, w)
}
