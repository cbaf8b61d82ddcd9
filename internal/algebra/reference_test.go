package algebra

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
)

// The reference interpreter reads the event algebra naively, from the
// operator definitions (expr.go, paper §3.1), the Policy definitions
// (§3.4) and the life-span rules (§3.3). FuzzComposerMatchesReference
// holds the composer to it step by step, and the example table pins both
// to literal answers. It keeps plain slices, builds a new one where it
// drops anything, and reuses nothing: Reset builds the graph anew.

// rOcc is an occurrence as the reference sees it: the keys of its
// primitive constituents in part order (leafKey), the newest one's Seq
// and the newest time.
type rOcc struct {
	leaves []string
	seq    uint64
	at     time.Time
}

// leafKey names a primitive constituent by its Seq. A non-occurrence has
// no constituent and no Seq; it is named by its time, the end of the
// interval it watched.
func leafKey(seq uint64, at time.Time) string {
	if seq == 0 {
		return "!" + strconv.Itoa(int(at.Sub(base)/time.Second))
	}
	return strconv.FormatUint(seq, 10)
}

func combine(parts []rOcc) rOcc {
	var c rOcc
	for _, p := range parts {
		c.leaves = append(c.leaves, p.leaves...)
		c.seq = max(c.seq, p.seq)
		if p.at.After(c.at) {
			c.at = p.at
		}
	}
	return c
}

// rNode is one operator of the expression and what it holds.
type rNode struct {
	expr     Expr
	kids     []*rNode // operands in expression order
	held     [][]rOcc // per operand of a Seq or Conj: its occurrences not yet consumed
	seen     []rOcc   // what a Closure's or History's operand delivered since the node last fired
	occurred bool     // a standalone Neg's event occurred in this life-span
}

func newRNode(e Expr) *rNode {
	var ops []Expr
	switch x := e.(type) {
	case Seq:
		ops = x.Exprs
	case Conj:
		ops = x.Exprs
	case Disj:
		ops = x.Exprs
	case Neg:
		ops = []Expr{x.Of}
	case Closure:
		ops = []Expr{x.Of}
	case History:
		ops = []Expr{x.Of}
	}
	n := &rNode{expr: e, held: make([][]rOcc, len(ops))}
	for _, op := range ops {
		n.kids = append(n.kids, newRNode(op))
	}
	return n
}

func isGuard(e Expr) bool { _, guard := e.(Neg); return guard }

type reference struct {
	comp *Composite
	root *rNode
}

func newReference(c *Composite) *reference { return &reference{comp: c, root: newRNode(c.Expr)} }

// flush ends the life-span: the end-of-interval operators complete, and
// everything held is forgotten.
func (r *reference) flush(now time.Time) []rOcc {
	out := r.end(r.root, now)
	r.reset()
	return out
}

func (r *reference) reset() { r.root = newRNode(r.comp.Expr) }

// expire forgets every held occurrence older than the validity interval.
func (r *reference) expire(now time.Time) int {
	if r.comp.Validity <= 0 {
		return 0
	}
	return expireNode(r.root, now.Add(-r.comp.Validity))
}

func (r *reference) deliver(n *rNode, key string, o rOcc) []rOcc {
	var out []rOcc
	switch x := n.expr.(type) {
	case Prim:
		if x.Key == key {
			out = []rOcc{o}
		}
	case Seq:
		// A guard that sees its event voids every occurrence held before
		// it: in A; !B; C no A that a B follows can start a match.
		for i, op := range x.Exprs {
			if isGuard(op) && len(r.deliver(n.kids[i].kids[0], key, o)) > 0 {
				for j := range i {
					n.held[j] = nil
				}
			}
		}
		out = r.pass(n, func(k *rNode) []rOcc { return r.deliver(k, key, o) })
	case Disj, Conj:
		out = r.pass(n, func(k *rNode) []rOcc { return r.deliver(k, key, o) })
	case Neg:
		if len(r.deliver(n.kids[0], key, o)) > 0 {
			n.occurred = true
		}
	case Closure:
		n.seen = append(n.seen, r.deliver(n.kids[0], key, o)...)
	case History:
		for _, c := range r.deliver(n.kids[0], key, o) {
			n.seen = append(n.seen, c)
			if len(n.seen) == x.Count {
				out = append(out, combine(n.seen))
				n.seen = nil
			}
		}
	}
	return out
}

// end is a node's end of life-span, where the end-of-interval operators
// complete. A Seq guard, a standalone Neg and a History watch their
// event within the life-span only: what completes at its end does not
// reach them.
func (r *reference) end(n *rNode, now time.Time) []rOcc {
	var out []rOcc
	switch n.expr.(type) {
	case Disj, Seq, Conj:
		out = r.pass(n, func(k *rNode) []rOcc { return r.end(k, now) })
	case Neg:
		if !n.occurred {
			out = []rOcc{{leaves: []string{leafKey(0, now)}, at: now}}
		}
	case Closure:
		if seen := append(n.seen, r.end(n.kids[0], now)...); len(seen) > 0 {
			out = []rOcc{combine(seen)}
		}
	}
	return out
}

// pass takes what each operand of a Disj, Seq or Conj gives (sub) through
// the operator: a Disj passes it on, a Seq holds it or terminates with
// it, and a Conj holds it, then fires once for the lot.
func (r *reference) pass(n *rNode, sub func(*rNode) []rOcc) []rOcc {
	var out []rOcc
	for i, k := range n.kids {
		if s, ok := n.expr.(Seq); ok && isGuard(s.Exprs[i]) {
			continue
		}
		for _, c := range sub(k) {
			switch n.expr.(type) {
			case Disj:
				out = append(out, c)
			case Seq: // the last operand terminates, the others are held
				if i < len(n.kids)-1 {
					r.hold(n, i, c)
				} else {
					out = append(out, r.seqFire(n, c)...)
				}
			case Conj:
				r.hold(n, i, c)
			}
		}
	}
	if _, conj := n.expr.(Conj); conj {
		out = r.conjFire(n)
	}
	return out
}

// hold keeps c for operand i. Recent keeps only the most recent
// occurrence of each constituent; every other policy keeps them all.
func (r *reference) hold(n *rNode, i int, c rOcc) {
	if r.comp.Policy == Recent {
		n.held[i] = []rOcc{c}
	} else {
		n.held[i] = append(n.held[i], c)
	}
}

// seqFire completes a Seq at terminator term. A chain is one held
// occurrence per non-guard operand before the terminator, strictly
// ascending by Seq and older than term.
func (r *reference) seqFire(n *rNode, term rOcc) []rOcc {
	var ops []int
	for i, op := range n.expr.(Seq).Exprs[:len(n.kids)-1] {
		if !isGuard(op) {
			ops = append(ops, i)
		}
	}
	all := chains(n, ops, 0, term.seq)
	switch r.comp.Policy {
	case Recent, Chronicle:
		// Recent holds one occurrence per operand, so there is at most
		// one chain, and it stays for later terminators. Chronicle takes
		// the chronologically first chain and consumes it.
		if len(all) == 0 {
			return nil
		}
		pick, parts := first(n, ops, all)
		if r.comp.Policy == Chronicle {
			for k, i := range ops {
				n.held[i] = slices.Delete(slices.Clone(n.held[i]), pick[k], pick[k]+1)
			}
		}
		return []rOcc{combine(append(parts, term))}
	case Continuous:
		// Each held initiator is a window, which the terminator completes
		// with the first chain after it; windows share constituents. A
		// terminator that completes any window closes every window opened
		// before it, and drops what they held.
		var out []rOcc
		for j := range n.held[ops[0]] {
			var mine [][]int
			for _, c := range all {
				if c[0] == j {
					mine = append(mine, c)
				}
			}
			if len(mine) > 0 {
				_, parts := first(n, ops, mine)
				out = append(out, combine(append(parts, term)))
			}
		}
		if len(out) > 0 {
			for _, i := range ops {
				n.held[i], _ = split(n.held[i], term.seq)
			}
		}
		return out
	case Cumulative:
		// Once a chain exists, the composite carries every occurrence held
		// before the terminator, operand by operand, and consumes them.
		if len(all) == 0 {
			return nil
		}
		var parts []rOcc
		for _, i := range ops {
			var older []rOcc
			n.held[i], older = split(n.held[i], term.seq)
			parts = append(parts, older...)
		}
		return []rOcc{combine(append(parts, term))}
	}
	return nil
}

// chains lists every chain over the held occurrences of ops after lower
// and before upper, as indexes into held.
func chains(n *rNode, ops []int, lower, upper uint64) [][]int {
	if len(ops) == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for j, c := range n.held[ops[0]] {
		if c.seq > lower && c.seq < upper {
			for _, rest := range chains(n, ops[1:], c.seq, upper) {
				out = append(out, append([]int{j}, rest...))
			}
		}
	}
	return out
}

// first picks the chronologically first chain: the oldest first
// constituent, then the oldest second, and so on. chains lists them in
// the order they are held, so ties go to the one held longest. It
// returns the chain and its occurrences.
func first(n *rNode, ops []int, all [][]int) ([]int, []rOcc) {
	pick := slices.MinFunc(all, func(a, b []int) int {
		for k, i := range ops {
			if x, y := n.held[i][a[k]].seq, n.held[i][b[k]].seq; x != y {
				return int(x) - int(y)
			}
		}
		return 0
	})
	var parts []rOcc
	for k, i := range ops {
		parts = append(parts, n.held[i][pick[k]])
	}
	return pick, parts
}

// split returns the occurrences not older than seq and those older.
func split(list []rOcc, seq uint64) (kept, older []rOcc) {
	for _, c := range list {
		if c.seq < seq {
			older = append(older, c)
		} else {
			kept = append(kept, c)
		}
	}
	return kept, older
}

// conjFire fires a Conj once when every operand holds an occurrence.
// Cumulative carries all of them, operand by operand; the other policies
// take each operand's oldest (under Recent its only one). Either way
// what fires is consumed. An unordered conjunction opens no windows, so
// Continuous reads as Chronicle.
func (r *reference) conjFire(n *rNode) []rOcc {
	if slices.ContainsFunc(n.held, func(h []rOcc) bool { return len(h) == 0 }) {
		return nil
	}
	var parts []rOcc
	for i, h := range n.held {
		if r.comp.Policy == Cumulative {
			parts = append(parts, h...)
			n.held[i] = nil
		} else {
			parts = append(parts, h[0])
			n.held[i] = slices.Clone(h[1:])
		}
	}
	return []rOcc{combine(parts)}
}

func expireNode(n *rNode, cutoff time.Time) int {
	dropped := 0
	keep := func(list []rOcc) []rOcc {
		var kept []rOcc
		for _, c := range list {
			if c.at.Before(cutoff) {
				dropped++
			} else {
				kept = append(kept, c)
			}
		}
		return kept
	}
	n.seen = keep(n.seen)
	for i, k := range n.kids {
		n.held[i] = keep(n.held[i])
		dropped += expireNode(k, cutoff)
	}
	return dropped
}

func pendingNode(n *rNode) int {
	p := len(n.seen)
	for i, k := range n.kids {
		p += len(n.held[i]) + pendingNode(k)
	}
	return p
}

// step is one operation of a script: a key feeds an occurrence of it
// with the given Seq at the given time; "flush", "reset" and "expire"
// call the composer's method at that time, and "pending" reads Pending.
type step struct {
	op  string
	seq uint64
	at  time.Time
}

// play applies s to the reference and to every composer. It fails t
// where a composer disagrees with the reference — completions by their
// leaves, an expiry's count, Pending — or breaks an invariant: a Seq's
// parts ascend (Cumulative carries them operand by operand), Flush
// leaves nothing pending, and Expire drops what it counts. It returns
// the step's outcome: the completions' leaf tuples (leafViews; "" for none),
// an expiry's count or the pending count.
func play(t *testing.T, ref *reference, s step, cps ...*Composer) string {
	t.Helper()
	var want string
	switch s.op {
	case "reset":
		ref.reset()
	case "pending":
		want = strconv.Itoa(pendingNode(ref.root))
	case "expire":
		want = strconv.Itoa(ref.expire(s.at))
	case "flush":
		want = leafViews(ref.flush(s.at))
	default:
		want = leafViews(ref.deliver(ref.root, s.op, rOcc{leaves: []string{leafKey(s.seq, s.at)}, seq: s.seq, at: s.at}))
	}
	in := &event.Instance{SpecKey: s.op, Kind: event.KindMethod, Seq: s.seq, Time: s.at}
	comp := ref.comp
	for i, cp := range cps {
		var got string
		switch s.op {
		case "reset":
			cp.Reset()
		case "pending":
			got = strconv.Itoa(cp.Pending())
		case "expire":
			before, n := cp.Pending(), cp.Expire(s.at)
			if before-cp.Pending() != n {
				t.Fatalf("%v %v: composer #%d: Expire at %v dropped %d of %d pending, leaving %d", comp.Expr, comp.Policy, i, s, n, before, cp.Pending())
			}
			got = strconv.Itoa(n)
		case "flush":
			got = cpViews(t, cp, cp.Flush(s.at))
			if p := cp.Pending(); p != 0 {
				t.Fatalf("%v %v: composer #%d: %d pending after Flush", comp.Expr, comp.Policy, i, p)
			}
		default:
			got = cpViews(t, cp, cp.Feed(in))
		}
		if got != want {
			t.Fatalf("%v %v validity %v: composer #%d at %v: %q, reference %q", comp.Expr, comp.Policy, comp.Validity, i, s, got, want)
		}
		if p, w := cp.Pending(), pendingNode(ref.root); p != w {
			t.Fatalf("%v %v: composer #%d after %v: %d pending, reference %d", comp.Expr, comp.Policy, i, s, p, w)
		}
	}
	return want
}

func (s step) String() string { return fmt.Sprintf("%s%d@%v", s.op, s.seq, s.at.Sub(base)) }

// leafViews renders completions as their leaf tuples, sorted.
func leafViews(occs []rOcc) string {
	var vs []string
	for _, o := range occs {
		vs = append(vs, "["+strings.Join(o.leaves, " ")+"]")
	}
	slices.Sort(vs)
	return strings.Join(vs, "")
}

// cpViews renders a composer's completions as leafViews does, failing t if a
// Seq's parts do not ascend.
func cpViews(t *testing.T, cp *Composer, ins []*event.Instance) string {
	t.Helper()
	comp := cp.Composite()
	_, seq := comp.Expr.(Seq)
	var occs []rOcc
	for _, in := range ins {
		for k := 1; seq && comp.Policy != Cumulative && k < len(in.Parts); k++ {
			if in.Parts[k].Seq <= in.Parts[k-1].Seq {
				t.Fatalf("%v %v: parts out of order: %s", comp.Expr, comp.Policy, completionView(in))
			}
		}
		var o rOcc
		in.Leaves(func(p *event.Instance) bool {
			o.leaves = append(o.leaves, leafKey(p.Seq, p.Time))
			return true
		})
		occs = append(occs, o)
	}
	return leafViews(occs)
}

// FuzzComposerMatchesReference plays a decoded script (decodeScript) on
// the reference, on a fresh composer and on a recycled one: a composer
// that played the same script against a reference of its own, then ended
// that life-span with Reset or Flush.
func FuzzComposerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		comp, end, ops := decodeScript(data)
		if err := Validate(comp.Expr); err != nil {
			t.Fatalf("decoded %v: %v", comp.Expr, err)
		}
		recycled, ref := mustComposer(t, comp), newReference(comp)
		for _, s := range decodeSteps(ops, 0, base) {
			play(t, ref, s, recycled)
		}
		play(t, ref, step{op: end, at: base.Add(time.Hour)}, recycled)
		fresh, ref := mustComposer(t, comp), newReference(comp)
		for _, s := range decodeSteps(ops, 1000, base.Add(2*time.Hour)) {
			play(t, ref, s, fresh, recycled)
		}
	})
}

// decodeScript reads an expression of at most three operator levels
// (decodeExpr), then a byte each for the policy, the validity interval
// in seconds (0: transaction scope, none) and how the recycled composer
// ends its earlier life ("flush" or "reset"). The rest are the ops; past
// the end, every byte reads 0.
func decodeScript(data []byte) (comp *Composite, end string, ops []byte) {
	rd := bytes.NewReader(data)
	next := func() byte { b, _ := rd.ReadByte(); return b }
	comp = &Composite{Name: "fuzz", Expr: decodeExpr(next, 3, true), Policy: Policy(1 + next()%4), Scope: ScopeTransaction}
	if v := next() % 8; v > 0 {
		comp.Scope, comp.Validity = ScopeGlobal, time.Duration(v)*time.Second
	}
	end = "reset"
	if next()%2 == 1 {
		end = "flush"
	}
	ops = data[len(data)-rd.Len():]
	return comp, end, ops[:min(len(ops), 48)]
}

// decodeExpr reads one node from the low three bits of a byte: 0 and 1 a
// primitive (keyed A, B or C by the byte's higher bits), then Seq, Conj,
// Disj, Neg (a Closure where negOK is false), Closure and History. The
// higher bits also give a Seq, Conj or Disj two or three operands and a
// History a count of 1 to 3; a Seq byte of 128 or more adds a guard after
// the first operand.
func decodeExpr(next func() byte, depth int, negOK bool) Expr {
	b, op := next(), 0
	if depth > 0 {
		op = int(b % 8)
	}
	if op < 2 {
		return Prim{Key: string(rune('A' + b/8%3))}
	}
	if op == 5 && !negOK {
		op = 6 // no Neg of Neg, and no bare guard in a Seq
	}
	n := 1
	if op <= 4 {
		n = 2 + int(b/8%2)
	}
	var ops []Expr
	for range n {
		ops = append(ops, decodeExpr(next, depth-1, op != 2 && op != 5))
	}
	switch op {
	case 2:
		if b >= 128 {
			ops = slices.Insert(ops, 1, Expr(Neg{Of: decodeExpr(next, depth-1, false)}))
		}
		return Seq{Exprs: ops}
	case 3:
		return Conj{Exprs: ops}
	case 4:
		return Disj{Exprs: ops}
	case 5:
		return Neg{Of: ops[0]}
	case 6:
		return Closure{Of: ops[0]}
	}
	return History{Of: ops[0], Count: 1 + int(b/8%3)}
}

// decodeSteps turns each op byte into a step: 5 flushes, 6 resets and 7
// expires at the current time; 0 to 4 feed A, B, C, A or B with the next
// Seq after seq, (b/8)%4 seconds after the previous step.
func decodeSteps(ops []byte, seq uint64, at time.Time) []step {
	var steps []step
	for _, b := range ops {
		switch b % 8 {
		case 5:
			steps = append(steps, step{op: "flush", at: at})
		case 6:
			steps = append(steps, step{op: "reset", at: at})
		case 7:
			steps = append(steps, step{op: "expire", at: at})
		default:
			seq++
			at = at.Add(time.Duration(b/8%4) * time.Second)
			steps = append(steps, step{op: string(rune('A' + b%8%3)), seq: seq, at: at})
		}
	}
	return steps
}
