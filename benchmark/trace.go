package main

import (
	"encoding/json"
	"os"
	"sync/atomic" //lint:allow rawatomics one flag that turns the benchmark's span wrappers on

	"repro/internal/eca"
	"repro/internal/event"
	"repro/internal/oodb"
	"repro/internal/txn"
)

// Span kinds of the traced pass. Every span is recorded by benchmark
// code around a call into one layer; spans inside the program are a
// later change.
const (
	spanTxn    = iota // app.txn: BeginTxn → Commit returned
	spanBegin         // txn.begin: System.BeginTxn (admission + begin)
	spanInvoke        // oodb.invoke: DB.Invoke as the application calls it
	spanAccess        // oodb.access: the application's direct Get/Set/New/Persist/Delete/Select
	spanMethod        // app.method: a method body (benchmark code the database calls back)
	spanEmit          // eca.emit: Sink.Emit — sentry, ECA manager, rule subtransactions
	spanEval          // rules.eval: Cond/Action of a rule compiled from the rule language
	spanGoBody        // rules.gobody: Cond/Action of a Go-closure rule
	spanCommit        // txn.commit: Txn.Commit — EOT, deferred rules, flush, WAL
	numSpans
)

var spanNames = [numSpans]string{
	"app.txn", "txn.begin", "oodb.invoke", "oodb.access", "app.method",
	"eca.emit", "rules.eval", "rules.gobody", "txn.commit",
}

// maxSpanRecords bounds the spans kept for -trace-out per client; self
// times keep accumulating past it.
const maxSpanRecords = 1 << 21

// spanRecord is one finished span as written to -trace-out.
type spanRecord struct {
	Trace  uint32 `json:"trace"`  // the client's transaction counter
	Kind   uint8  `json:"kind"`   // index into spanNames
	Depth  uint8  `json:"depth"`  // nesting depth; the parent is the enclosing span
	Start  int64  `json:"start"`  // ns since process start
	Dur    int32  `json:"dur"`    // ns
	Client uint8  `json:"client"` // which closed-loop client
}

type openSpan struct {
	kind    int
	start   int64
	childNS int64
}

// tracer accumulates one client's spans. Immediate and deferred rules
// run on the raising goroutine under SequentialExec, so everything a
// client's transaction causes nests on that client's stack without
// locks; detached rules run elsewhere and record only reaction stamps.
type tracer struct {
	client uint8
	stack  []openSpan
	trace  uint32
	self   [numSpans]int64 // ns not covered by a child span
	total  [numSpans]int64
	recs   []spanRecord
}

func newTracer(client int) *tracer {
	return &tracer{client: uint8(client), stack: make([]openSpan, 0, 16),
		recs: make([]spanRecord, 0, 1<<16)}
}

func (tr *tracer) open(kind int) {
	if kind == spanTxn {
		tr.trace++
	}
	tr.stack = append(tr.stack, openSpan{kind: kind, start: nowNS()})
}

func (tr *tracer) close() {
	top := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	dur := nowNS() - top.start
	tr.total[top.kind] += dur
	tr.self[top.kind] += dur - top.childNS
	if n := len(tr.stack); n > 0 {
		tr.stack[n-1].childNS += dur
	}
	if len(tr.recs) < maxSpanRecords {
		tr.recs = append(tr.recs, spanRecord{Trace: tr.trace, Kind: uint8(top.kind),
			Depth: uint8(len(tr.stack)), Start: top.start, Dur: int32(min(dur, 1<<31-1)), Client: tr.client})
	}
}

// writeSpans dumps the spans kept in memory as one JSON document.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := struct {
		Kinds []string     `json:"kinds"`
		Spans []spanRecord `json:"spans"`
	}{Kinds: spanNames[:]}
	for _, tr := range tracers {
		out.Spans = append(out.Spans, tr.recs...)
	}
	err = json.NewEncoder(f).Encode(out)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracingOn is set while the traced rounds run. Only then do the
// wrappers below look up which client a transaction belongs to, so the
// untraced pass pays one atomic load per wrapped call and nothing else.
var tracingOn atomic.Bool

// clientKey tags a traced top-level transaction with its client.
type clientKey struct{}

// tracedClient returns the client on whose span stack a call made inside
// t belongs: tracing is on and t is (a subtransaction of) one of that
// client's open transactions. Immediate and deferred rules run inside
// the triggering transaction on the client's goroutine; detached rules
// have their own top-level transaction and are not traced.
func tracedClient(t *txn.Txn) *client {
	if !tracingOn.Load() || t == nil {
		return nil
	}
	c, _ := t.Top().Value(clientKey{}).(*client)
	if c == nil || len(c.tr.stack) == 0 {
		return nil
	}
	return c
}

// timingSink is the oodb.Sink the traced pass installs with DB.SetSink:
// it delegates to the engine's sentry dispatcher and times each Emit, so
// eca.emit covers sentry + ECA manager + rule-subtransaction begin,
// commit and lock inheritance, with the rule bodies subtracted as child
// spans.
type timingSink struct{ inner oodb.Sink }

func (s timingSink) Wants(key string) bool { return s.inner.Wants(key) }

func (s timingSink) Emit(in *event.Instance) error {
	t, _ := in.Origin.(*txn.Txn)
	c := tracedClient(t)
	if c == nil {
		return s.inner.Emit(in)
	}
	c.tr.open(spanEmit)
	err := s.inner.Emit(in)
	c.tr.close()
	return err
}

// traceRule wraps the condition and action of a rule in spans of the
// given kind.
func traceRule(r *eca.Rule, kind int) *eca.Rule {
	if cond := r.Cond; cond != nil {
		r.Cond = func(rc *eca.RuleCtx) (bool, error) {
			c := tracedClient(rc.Txn)
			if c == nil {
				return cond(rc)
			}
			c.tr.open(kind)
			ok, err := cond(rc)
			c.tr.close()
			return ok, err
		}
	}
	action := r.Action
	r.Action = func(rc *eca.RuleCtx) error {
		c := tracedClient(rc.Txn)
		if c == nil {
			return action(rc)
		}
		c.tr.open(kind)
		err := action(rc)
		c.tr.close()
		return err
	}
	return r
}

// traceMethod wraps a method body so its time is not charged to the
// database's Invoke or to the rule that called it.
func traceMethod(impl oodb.MethodImpl) oodb.MethodImpl {
	return func(ctx *oodb.Ctx, self *oodb.Object, args []any) (any, error) {
		c := tracedClient(ctx.Txn)
		if c == nil {
			return impl(ctx, self, args)
		}
		c.tr.open(spanMethod)
		res, err := impl(ctx, self, args)
		c.tr.close()
		return res, err
	}
}
