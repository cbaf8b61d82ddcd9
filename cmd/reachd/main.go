// reachd is an interactive shell over a REACH database: define
// monitored classes, create and name objects, mutate them through
// sentried update methods, load ECA rules in the REACH rule language,
// and query with OQL — with every command's events flowing through
// the integrated rule engine.
//
//	reachd -dir /tmp/plantdb -admin localhost:7047
//
// Commands (one per line; 'help' lists them):
//
//	class River level:int temp:float name:string
//	new River as Rhine
//	invoke Rhine update_level 42
//	rule <rule text ...>;           (reads until a line ending in };)
//	load rules.rules
//	query select r from River r where r.level < 37
//	index River level
//	get Rhine level | set Rhine temp 26.5
//	checkpoint                      (force a fuzzy checkpoint now)
//	roots | classes | stats [metrics|trace <n>] | health | slowlog | history | quit
//
// SIGINT/SIGTERM shut down gracefully: the overload governor refuses
// new admissions, the rule executor is drained, a final checkpoint is
// taken, and the store is closed cleanly.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	reach "repro"
	"repro/internal/oodb"
)

func main() {
	dir := flag.String("dir", "", "storage directory (empty = in-memory)")
	admin := flag.String("admin", "", "observability HTTP listen address, e.g. localhost:7047 (empty = disabled)")
	workers := flag.Int("workers", 0, "detached-rule executor worker pool size (<= 0 = default 8)")
	queue := flag.Int("queue", 0, "detached-rule executor queue capacity (<= 0 = default 256)")
	slowThreshold := flag.Duration("slow-threshold", 250*time.Millisecond, "promote traces slower than this into the slow log (0 disables)")
	admitDeadline := flag.Duration("admit-deadline", 0, "how long a new write transaction may queue while shedding before ErrOverloaded (0 = default 250ms)")
	flag.Parse()

	engineOpts := reach.EngineOptions{
		Workers:          *workers,
		Queue:            *queue,
		SlowLogThreshold: *slowThreshold,
	}
	opts := reach.Options{Dir: *dir, Engine: engineOpts}
	opts.Governor.AdmitDeadline = *admitDeadline
	sys, err := reach.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachd:", err)
		os.Exit(1)
	}
	defer sys.Close()
	// Graceful shutdown on SIGINT/SIGTERM: the governor refuses new
	// admissions, the rule executor drains (bounded), a final
	// checkpoint covers everything the drained rules wrote, and only
	// then is the store closed — so the next start recovers instantly.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "\nreachd: %v: refusing admissions, draining rules, checkpointing, closing\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sys.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "reachd: shutdown:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()
	if *admin != "" {
		srv, addr, err := sys.Admin().Serve(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reachd: admin:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("admin: http://%s/  (/metrics /stats /health /traces /slowlog /checkpoint /failpoints /rules/deadletter /rules/breakers /debug/pprof)\n", addr)
	}
	fmt.Printf("build: %s %s (%s)\n", sys.Build.Module, sys.Build.Version, sys.Build.GoVersion)
	fmt.Println("REACH shell — an integrated active OODBMS. Type 'help'.")
	repl(sys, os.Stdin, os.Stdout)
}

func repl(sys *reach.System, in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	var ruleBuf strings.Builder
	inRule := false
	for {
		if inRule {
			fmt.Fprint(out, "... ")
		} else {
			fmt.Fprint(out, "reach> ")
		}
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if inRule {
			ruleBuf.WriteString(line)
			ruleBuf.WriteString("\n")
			if strings.HasSuffix(line, "};") {
				inRule = false
				if _, err := sys.LoadRules(ruleBuf.String()); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprintln(out, "rule loaded")
				}
				ruleBuf.Reset()
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			help(out)
		case "class":
			if err := defineClass(sys, out, args); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "new":
			if err := newObject(sys, out, args); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "set", "get", "invoke", "delete":
			if err := objectCmd(sys, out, cmd, args); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "rules":
			rulesCmd(sys, out, args)
		case "rule":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "rule"))
			ruleBuf.WriteString("rule " + rest + "\n")
			if strings.HasSuffix(rest, "};") {
				if _, err := sys.LoadRules(ruleBuf.String()); err != nil {
					fmt.Fprintln(out, "error:", err)
				} else {
					fmt.Fprintln(out, "rule loaded")
				}
				ruleBuf.Reset()
			} else {
				inRule = true
			}
		case "load":
			if len(args) != 1 {
				fmt.Fprintln(out, "usage: load <file>")
				continue
			}
			src, err := os.ReadFile(args[0])
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			loaded, err := sys.LoadRules(string(src))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "loaded %d rule(s)\n", len(loaded.Rules))
		case "query":
			q := strings.TrimSpace(strings.TrimPrefix(line, "query"))
			if err := runQuery(sys, out, q); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case "index":
			if len(args) != 2 {
				fmt.Fprintln(out, "usage: index <Class> <attr>")
				continue
			}
			if _, err := sys.Query.CreateIndex(args[0], args[1]); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintf(out, "index on %s.%s created (maintained by ECA rules)\n", args[0], args[1])
			}
		case "roots":
			for _, n := range sys.DB.RootNames() {
				fmt.Fprintln(out, " ", n)
			}
		case "classes":
			for _, n := range sys.DB.Dictionary().Classes() {
				fmt.Fprintln(out, " ", n)
			}
		case "stats":
			statsCmd(sys, out, args)
		case "health":
			healthCmd(sys, out)
		case "slowlog":
			slowLogCmd(sys, out, args)
		case "deadletter":
			deadLetterCmd(sys, out, args)
		case "breakers":
			for _, b := range sys.Engine.Breakers() {
				state := "closed"
				if b.Open {
					state = "OPEN since " + b.Since.Format("15:04:05")
				}
				fmt.Fprintf(out, "  %-24s %-20s consecutive=%d last=%s\n", b.Rule, state, b.Consecutive, b.LastErr)
			}
			if len(sys.Engine.Breakers()) == 0 {
				fmt.Fprintln(out, "  (no breaker records)")
			}
		case "rearm":
			if len(args) != 1 {
				fmt.Fprintln(out, "usage: rearm <rule>")
				continue
			}
			if sys.Engine.RearmRule(args[0]) {
				fmt.Fprintf(out, "breaker for %s re-armed\n", args[0])
			} else {
				fmt.Fprintf(out, "rule %q has no breaker record\n", args[0])
			}
		case "checkpoint":
			if err := sys.DB.Checkpoint(); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				h := sys.DB.CheckpointHealth()
				fmt.Fprintf(out, "checkpoint complete: redoLSN=%d endLSN=%d (ok=%d failed=%d)\n",
					h.LastRedoLSN, h.LastEndLSN, h.Checkpoints, h.Failures)
			}
		case "drain":
			if err := drainCmd(sys, args); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "drained: detached executor idle, new spawns refused")
			}
		case "history":
			for _, en := range sys.Engine.GlobalHistory() {
				fmt.Fprintf(out, "  #%d txn=%d %s\n", en.Seq, en.Txn, en.Key)
			}
		default:
			fmt.Fprintf(out, "unknown command %q (try 'help')\n", cmd)
		}
	}
}

// rulesCmd surfaces the live engine's whole-ruleset interaction
// analysis: 'rules graph' dumps the triggering graph — nodes, edges,
// cycles, and the static cascade-depth bound — for operators debugging
// a misbehaving rule set.
func rulesCmd(sys *reach.System, out io.Writer, args []string) {
	if len(args) != 1 || args[0] != "graph" {
		fmt.Fprintln(out, "usage: rules graph")
		return
	}
	res := sys.RuleAnalysis()
	g := res.Graph
	fmt.Fprintf(out, "  triggering graph: %d rule(s), %d edge(s)\n", len(g.Nodes), len(g.Edges))
	for _, n := range g.Nodes {
		marks := ""
		if n.InCycle {
			marks += " [cycle]"
		}
		if n.Unreachable {
			marks += " [unreachable]"
		}
		fmt.Fprintf(out, "  node %-24s prio=%d cond=%v action=%v%s\n",
			n.Name(), n.Decl.Prio, n.Cond, n.Action, marks)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(out, "  edge %s -> %s on %s (%s)\n", e.From, e.To, e.Key, e.Via)
	}
	if len(res.Cycles) == 0 {
		fmt.Fprintf(out, "  no cycles; static cascade-depth bound %d\n", res.DepthBound)
	}
	for _, c := range res.Cycles {
		fmt.Fprintf(out, "  cycle [%v] %s\n", c.Severity, c)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(out, "  finding %s\n", f)
	}
}

// deadLetterCmd lists or clears the executor's dead-letter queue.
func deadLetterCmd(sys *reach.System, out io.Writer, args []string) {
	if len(args) == 1 && args[0] == "clear" {
		fmt.Fprintf(out, "cleared %d dead-letter entries\n", sys.Engine.ClearDeadLetters())
		return
	}
	if len(args) != 0 {
		fmt.Fprintln(out, "usage: deadletter [clear]")
		return
	}
	letters := sys.Engine.DeadLetters()
	if len(letters) == 0 {
		fmt.Fprintln(out, "  (dead-letter queue empty)")
		return
	}
	for _, dl := range letters {
		fmt.Fprintf(out, "  %s rule=%s event=%s seq=%d attempts=%d reason=%s err=%s\n",
			dl.Time.Format("15:04:05"), dl.Rule, dl.EventKey, dl.Seq, dl.Attempts, dl.Reason, dl.Err)
	}
}

// drainCmd flips the engine into shutdown mode, bounded by an
// optional timeout argument (e.g. "drain 5s").
func drainCmd(sys *reach.System, args []string) error {
	ctx := context.Background()
	if len(args) == 1 {
		d, err := time.ParseDuration(args[0])
		if err != nil {
			return fmt.Errorf("usage: drain [timeout]: %w", err)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	return sys.Drain(ctx)
}

// slowLogCmd lists, clears, or re-thresholds the slow-transaction log.
func slowLogCmd(sys *reach.System, out io.Writer, args []string) {
	sl := sys.Engine.SlowLog()
	switch {
	case len(args) == 1 && args[0] == "clear":
		fmt.Fprintf(out, "cleared %d slow-log entries\n", sl.Clear())
		return
	case len(args) == 2 && args[0] == "threshold":
		d, err := time.ParseDuration(args[1])
		if err != nil {
			fmt.Fprintln(out, "usage: slowlog threshold <duration>")
			return
		}
		sl.SetThreshold(d)
		fmt.Fprintf(out, "slow-log threshold set to %v\n", d)
		return
	case len(args) != 0:
		fmt.Fprintln(out, "usage: slowlog [clear | threshold <duration>]")
		return
	}
	fmt.Fprintf(out, "  threshold=%v entries=%d\n", sl.Threshold(), sl.Len())
	for _, e := range sl.Snapshot() {
		total := time.Duration(e.TotalNS)
		covered := time.Duration(e.CoveredNS)
		pct := 0.0
		if e.TotalNS > 0 {
			pct = 100 * float64(e.CoveredNS) / float64(e.TotalNS)
		}
		fmt.Fprintf(out, "  trace %d root=%s total=%v attributed=%v (%.0f%%)\n",
			e.Trace.ID, e.Trace.Root, total, covered, pct)
		for stage, ns := range e.AttributedNS {
			fmt.Fprintf(out, "    %-18s %v\n", stage, time.Duration(ns))
		}
	}
	if sl.Len() == 0 {
		fmt.Fprintln(out, "  (no slow traces)")
	}
}

// healthCmd prints the overload governor's view: overall state, each
// registered resource against its watermarks, and shed/transition
// counters — the same data the admin /health endpoint serves as JSON.
func healthCmd(sys *reach.System, out io.Writer) {
	snap := sys.Governor.Snapshot()
	status := snap.State
	if snap.Disabled {
		status += " (governor disabled)"
	}
	if snap.Shutdown {
		status += " (shutting down)"
	}
	fmt.Fprintf(out, "  state: %s\n", status)
	for _, r := range snap.Resources {
		fmt.Fprintf(out, "  %-22s %-10d [degraded>%d shedding>%d read-only>%d] %s\n",
			r.Name, r.Value, r.Levels.Degraded, r.Levels.Shedding, r.Levels.ReadOnly, r.State)
	}
	fmt.Fprintf(out, "  sheds: detached=%d deferred=%d writer=%d\n",
		snap.Sheds["detached"], snap.Sheds["deferred"], snap.Sheds["writer"])
	fmt.Fprintf(out, "  transitions: healthy=%d degraded=%d shedding=%d read-only=%d\n",
		snap.Transitions["healthy"], snap.Transitions["degraded"],
		snap.Transitions["shedding"], snap.Transitions["read-only"])
}

// statsCmd prints the summary counters, the full Prometheus exposition
// ("stats metrics"), or recent lifecycle traces ("stats trace <n>").
func statsCmd(sys *reach.System, out io.Writer, args []string) {
	if len(args) == 0 {
		st := sys.Engine.Stats()
		fmt.Fprintf(out, "  events=%d immediate=%d deferred=%d detached=%d composites=%d\n",
			st.Events, st.ImmediateFired, st.DeferredFired, st.DetachedFired, st.CompositesDetected)
		useful, useless, pot := sys.Engine.Dispatcher().Stats()
		fmt.Fprintf(out, "  sentry overhead: useful=%d useless=%d potentially-useful=%d\n", useful, useless, pot)
		ss := sys.DB.StorageStats()
		fmt.Fprintf(out, "  storage: pages=%d buffer hits/misses=%d/%d wal-syncs=%d\n",
			ss.Pages, ss.BufferHits, ss.BufferMiss, ss.WALSyncs)
		fmt.Fprintf(out, "  group commit: requests=%d batches=%d batch-highwater=%d\n",
			ss.GroupCommitRequests, ss.GroupCommitBatches, ss.GroupBatchHighwater)
		fmt.Fprintf(out, "  wal: segments=%d bytes=%d rotations=%d prunes=%d\n",
			ss.WALSegments, ss.WALSegmentBytes, ss.WALRotations, ss.WALPrunes)
		degraded := ""
		if ss.CheckpointDegraded {
			degraded = " DEGRADED"
		}
		fmt.Fprintf(out, "  checkpoints: ok=%d failed=%d redo-lsn=%d%s\n",
			ss.Checkpoints, ss.CheckpointFailures, ss.LastRedoLSN, degraded)
		if ss.LastCheckpointError != "" {
			fmt.Fprintf(out, "  last checkpoint error: %s\n", ss.LastCheckpointError)
		}
		fmt.Fprintf(out, "  recovery: segments scanned/skipped=%d/%d records scanned/replayed=%d/%d\n",
			ss.RecoverySegmentsScanned, ss.RecoverySegmentsSkipped,
			ss.RecoveryRecordsScanned, ss.RecoveryRecordsReplayed)
		return
	}
	switch args[0] {
	case "metrics":
		if err := sys.Metrics.WritePrometheus(out); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case "trace":
		n := 5
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v <= 0 {
				fmt.Fprintln(out, "usage: stats trace <n>")
				return
			}
			n = v
		}
		traces := sys.Tracer.Recent(n)
		if len(traces) == 0 {
			fmt.Fprintln(out, "  (no traces yet)")
			return
		}
		for _, tr := range traces {
			fmt.Fprintf(out, "  trace %d root=%s spans=%d\n", tr.ID, tr.Root, len(tr.Spans))
			for _, sp := range tr.Spans {
				fmt.Fprintf(out, "    %-16s %-24s +%-12s %s\n",
					sp.Stage, sp.Key, sp.Start.Sub(tr.Start), sp.Dur)
			}
		}
	default:
		fmt.Fprintln(out, "usage: stats [metrics | trace <n>]")
	}
}

func help(out io.Writer) {
	fmt.Fprint(out, `  class <Name> <attr:type>...   define a monitored class (types: int float string bool ref)
  new <Class> [as <root>]       create an object, optionally naming it
  get <root> <attr>             read an attribute
  set <root> <attr> <value>     write an attribute (raises a state-change event)
  invoke <root> update_<attr> <value>   sentried update method
  delete <root>                 delete an object (raises the destructor event)
  rule <REACH rule text>;       define a rule inline (multi-line until };)
  load <file>                   load a .rules file
  query select v from Class v [where ...]   OQL query
  index <Class> <attr>          create an ECA-maintained hash index
  stats                         engine / sentry / storage counters
  stats metrics                 full metric registry (Prometheus text)
  stats trace <n>               last n event-lifecycle traces
  health                        overload governor state, resource watermarks, shed counters
  slowlog [clear | threshold <dur>]   slow-transaction log with latency attribution
  deadletter [clear]            inspect / empty the rule dead-letter queue
  rules graph                   triggering graph, cycles, cascade-depth bound
  breakers                      per-rule circuit breaker states
  rearm <rule>                  close a tripped rule's circuit breaker
  drain [timeout]               refuse new detached spawns, wait for in-flight rules
  checkpoint                    take a fuzzy checkpoint (flush + prune WAL segments)
  roots | classes | history | quit
`)
}

func defineClass(sys *reach.System, out io.Writer, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: class <Name> <attr:type>...")
	}
	name := args[0]
	var attrs []reach.Attr
	for _, spec := range args[1:] {
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("attribute %q must be name:type", spec)
		}
		var t oodb.AttrType
		switch parts[1] {
		case "int":
			t = reach.TInt
		case "float":
			t = reach.TFloat
		case "string":
			t = reach.TString
		case "bool":
			t = reach.TBool
		case "ref":
			t = reach.TRef
		default:
			return fmt.Errorf("unknown type %q", parts[1])
		}
		attrs = append(attrs, reach.Attr{Name: parts[0], Type: t})
	}
	cls := reach.NewClass(name, attrs...)
	cls.Monitored = true
	// A sentried update method per attribute, so rules can trap
	// `after obj->update_<attr>(x)`.
	for _, a := range attrs {
		attr := a.Name
		cls.Method("update_"+attr, func(ctx *reach.Ctx, self *reach.Object, args []any) (any, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("update_%s needs one argument", attr)
			}
			return nil, ctx.Set(self, attr, args[0])
		})
	}
	if err := sys.RegisterClass(cls); err != nil {
		return err
	}
	fmt.Fprintf(out, "class %s registered (monitored, %d update methods)\n", name, len(attrs))
	return nil
}

// beginWrite starts an admission-controlled transaction for a write
// command. Under overload the governor may park the admission briefly
// and then refuse it; the shell surfaces that as a retryable error
// rather than silently queueing work the system cannot absorb.
func beginWrite(sys *reach.System) (*reach.Txn, error) {
	tx, err := sys.BeginTxn()
	if err != nil {
		if errors.Is(err, reach.ErrOverloaded) {
			return nil, fmt.Errorf("%w (check 'health'; retry with backoff)", err)
		}
		return nil, err
	}
	return tx, nil
}

func newObject(sys *reach.System, out io.Writer, args []string) error {
	if len(args) != 1 && !(len(args) == 3 && args[1] == "as") {
		return fmt.Errorf("usage: new <Class> [as <root>]")
	}
	tx, err := beginWrite(sys)
	if err != nil {
		return err
	}
	obj, err := sys.DB.NewObject(tx, args[0])
	if err != nil {
		_ = tx.Abort() // secondary to the reported error
		return err
	}
	if len(args) == 3 {
		if err := sys.DB.SetRoot(tx, args[2], obj); err != nil {
			_ = tx.Abort() // secondary to the reported error
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(out, "created %v\n", obj)
	return nil
}

func objectCmd(sys *reach.System, out io.Writer, cmd string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: %s <root> ...", cmd)
	}
	var tx *reach.Txn
	var err error
	if cmd == "get" {
		tx = sys.Begin() // reads stay admitted even when shedding writers
	} else if tx, err = beginWrite(sys); err != nil {
		return err
	}
	obj, err := sys.DB.Root(tx, args[0])
	if err != nil {
		_ = tx.Abort() // secondary to the reported error
		return err
	}
	switch cmd {
	case "get":
		if len(args) != 2 {
			_ = tx.Abort() // secondary to the reported error
			return fmt.Errorf("usage: get <root> <attr>")
		}
		v, err := sys.DB.Get(tx, obj, args[1])
		if err != nil {
			_ = tx.Abort() // secondary to the reported error
			return err
		}
		fmt.Fprintf(out, "%v\n", v)
	case "set":
		if len(args) != 3 {
			_ = tx.Abort() // secondary to the reported error
			return fmt.Errorf("usage: set <root> <attr> <value>")
		}
		if err := sys.DB.Set(tx, obj, args[1], parseValue(args[2])); err != nil {
			_ = tx.Abort() // secondary to the reported error
			return err
		}
	case "invoke":
		if len(args) < 2 {
			_ = tx.Abort() // secondary to the reported error
			return fmt.Errorf("usage: invoke <root> <method> [args...]")
		}
		callArgs := make([]any, 0, len(args)-2)
		for _, a := range args[2:] {
			callArgs = append(callArgs, parseValue(a))
		}
		res, err := sys.DB.Invoke(tx, obj, args[1], callArgs...)
		if err != nil {
			_ = tx.Abort() // secondary to the reported error
			return err
		}
		if res != nil {
			fmt.Fprintf(out, "-> %v\n", res)
		}
	case "delete":
		if err := sys.DB.Delete(tx, obj); err != nil {
			_ = tx.Abort() // secondary to the reported error
			return err
		}
	}
	return tx.Commit()
}

func runQuery(sys *reach.System, out io.Writer, q string) error {
	tx := sys.Begin()
	defer tx.Commit()
	objs, err := sys.Query.OQL(tx, q)
	if err != nil {
		return err
	}
	for _, obj := range objs {
		fmt.Fprintf(out, "  %v {", obj)
		for i, a := range obj.Class().Attrs() {
			v, _ := sys.DB.Get(tx, obj, a.Name)
			if i > 0 {
				fmt.Fprint(out, ", ")
			}
			fmt.Fprintf(out, "%s: %v", a.Name, v)
		}
		fmt.Fprintln(out, "}")
	}
	fmt.Fprintf(out, "  (%d object(s))\n", len(objs))
	return nil
}

func parseValue(s string) any {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	if s == "true" {
		return true
	}
	if s == "false" {
		return false
	}
	return strings.Trim(s, `"`)
}
