package algebra

import (
	"slices"
	"time"

	"repro/internal/event"
)

// Policy is the event consumption policy applied when multiple
// instances of a constituent are available (SNOOP contexts, §3.4).
type Policy int

// Consumption policies.
const (
	// Recent keeps only the most recent occurrence of each
	// constituent — typical for sensor monitoring.
	Recent Policy = iota + 1
	// Chronicle consumes occurrences in chronological order — typical
	// for workflow applications.
	Chronicle
	// Continuous opens a new window per initiator; a terminator
	// completes every open window — useful for trend monitoring.
	Continuous
	// Cumulative accumulates all occurrences until the composite is
	// raised, which carries all of them.
	Cumulative
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Recent:
		return "recent"
	case Chronicle:
		return "chronicle"
	case Continuous:
		return "continuous"
	case Cumulative:
		return "cumulative"
	}
	return "policy(?)"
}

// detector is one node of an instantiated composition graph.
//
// A node's completions come back as a slice that is either fresh (its
// receiver may keep it) or a primitive node's one-slot buffer, which
// holds only the occurrence just fed and is valid until that node's
// next call. Only Prim and Disj nodes pass an occurrence through; every
// other node composes new instances (compose) and merges their slices.
type detector interface {
	// feed delivers an occurrence; the return value lists completions
	// of this node caused by it.
	feed(in *event.Instance) []*event.Instance
	// flush ends the life-span: operators that complete at
	// end-of-interval (closure, standalone negation) emit here.
	flush(now time.Time) []*event.Instance
	// reset discards all semi-composed state and clears every buffer
	// the node keeps, so an idle graph pins no instance.
	reset()
	// pending counts buffered semi-composed occurrences.
	pending() int
	// expire drops buffered occurrences older than cutoff, returning
	// how many were garbage collected.
	expire(cutoff time.Time) int
}

// compose builds an intermediate (anonymous) composite instance over a
// copy of parts and returns it as the only element of a fresh slice.
// The slice and the instance's Parts share one backing array, each
// capped to its own elements, so a completion costs two allocations:
// the instance and that array. parts is usually a detector's scratch.
func compose(parts []*event.Instance) []*event.Instance {
	n := len(parts)
	buf := make([]*event.Instance, n+1)
	out := &event.Instance{Kind: event.KindComposite, Parts: buf[:copy(buf, parts):n]}
	for _, p := range parts {
		if p.Seq > out.Seq {
			out.Seq = p.Seq
		}
		if p.Time.After(out.Time) {
			out.Time = p.Time
		}
	}
	buf[n] = out
	return buf[n:]
}

// merge appends the completions b to a, taking b as it is when a is
// empty. Appending never writes into a primitive node's buffer: it holds
// one element at capacity one, so append copies it out.
func merge(a, b []*event.Instance) []*event.Instance {
	if len(a) == 0 {
		return b
	}
	return append(a, b...)
}

// keepIf filters q in place, keeping the occurrences keep accepts, and
// clears the vacated tail so the backing array pins nothing it dropped.
func keepIf(q []*event.Instance, keep func(*event.Instance) bool) []*event.Instance {
	kept := q[:0]
	for _, o := range q {
		if keep(o) {
			kept = append(kept, o)
		}
	}
	clear(q[len(kept):])
	return kept
}

// truncate empties a queue or scratch buffer for reuse, clearing its
// whole capacity: stale pointers past the length would pin instances.
func truncate(q []*event.Instance) []*event.Instance {
	clear(q[:cap(q)])
	return q[:0]
}

// expireBefore drops the occurrences in q older than cutoff, returning
// the kept queue and how many it dropped.
func expireBefore(q []*event.Instance, cutoff time.Time) ([]*event.Instance, int) {
	kept := keepIf(q, func(o *event.Instance) bool { return !o.Time.Before(cutoff) })
	return kept, len(q) - len(kept)
}

// ---- primitive ----

func (p Prim) build(Policy) detector { return &primDetector{key: p.Key} }

// primDetector matches one spec key. It returns a match in a buffer it
// owns, so matching allocates nothing.
type primDetector struct {
	key string
	buf [1]*event.Instance
}

func (d *primDetector) feed(in *event.Instance) []*event.Instance {
	if in.SpecKey != d.key {
		return nil
	}
	d.buf[0] = in
	return d.buf[:]
}
func (d *primDetector) flush(time.Time) []*event.Instance { return nil }
func (d *primDetector) reset()                            { d.buf[0] = nil }
func (d *primDetector) pending() int                      { return 0 }
func (d *primDetector) expire(time.Time) int              { return 0 }

// ---- disjunction ----

func (x Disj) build(p Policy) detector {
	subs := make([]detector, len(x.Exprs))
	for i, e := range x.Exprs {
		subs[i] = e.build(p)
	}
	return &disjDetector{subs: subs}
}

type disjDetector struct{ subs []detector }

func (d *disjDetector) feed(in *event.Instance) []*event.Instance {
	var out []*event.Instance
	for _, s := range d.subs {
		out = merge(out, s.feed(in))
	}
	return out
}

func (d *disjDetector) flush(now time.Time) []*event.Instance {
	var out []*event.Instance
	for _, s := range d.subs {
		out = merge(out, s.flush(now))
	}
	return out
}

func (d *disjDetector) reset() {
	for _, s := range d.subs {
		s.reset()
	}
}

func (d *disjDetector) pending() int {
	n := 0
	for _, s := range d.subs {
		n += s.pending()
	}
	return n
}

func (d *disjDetector) expire(cutoff time.Time) int {
	n := 0
	for _, s := range d.subs {
		n += s.expire(cutoff)
	}
	return n
}

// ---- sequence ----

func (x Seq) build(p Policy) detector {
	d := &seqDetector{policy: p}
	for _, e := range x.Exprs {
		if neg, ok := e.(Neg); ok {
			// Guard between the previous and next non-guard position.
			d.guards = append(d.guards, &seqGuard{
				after: len(d.positions) - 1,
				det:   neg.Of.build(p),
			})
			continue
		}
		d.positions = append(d.positions, &seqPosition{det: e.build(p)})
	}
	d.chain = make([]*event.Instance, 0, len(d.positions))
	return d
}

type seqDetector struct {
	positions []*seqPosition
	guards    []*seqGuard
	policy    Policy
	// chain is the scratch a completion's constituents are picked into;
	// compose copies them out. Its capacity is at least one slot per
	// position (Cumulative grows it).
	chain []*event.Instance
}

type seqPosition struct {
	det   detector
	queue []*event.Instance
}

// retain queues an intermediate occurrence under the policy's retention
// rule: Recent keeps only the newest, every other policy keeps them all.
func (pos *seqPosition) retain(c *event.Instance, p Policy) {
	if p == Recent {
		pos.queue = pos.queue[:0]
	}
	pos.queue = append(pos.queue, c)
}

// seqGuard invalidates pending occurrences at positions <= after when
// the guarded event occurs (A; !B; C — B kills pending As).
type seqGuard struct {
	after int
	det   detector
}

func (d *seqDetector) feed(in *event.Instance) []*event.Instance {
	// Guards first: an occurrence of the guarded event poisons the
	// partial matches it protects against.
	for _, g := range d.guards {
		for range g.det.feed(in) {
			for i := 0; i <= g.after && i < len(d.positions); i++ {
				pos := d.positions[i]
				pos.queue = keepIf(pos.queue, func(o *event.Instance) bool { return o.Seq > in.Seq })
			}
		}
	}
	var fired []*event.Instance
	last := len(d.positions) - 1
	for i, pos := range d.positions {
		for _, c := range pos.det.feed(in) {
			if i == last {
				fired = merge(fired, d.completeWith(c))
			} else {
				pos.retain(c, d.policy)
			}
		}
	}
	return fired
}

// completeWith attempts matches ending at terminator term.
func (d *seqDetector) completeWith(term *event.Instance) []*event.Instance {
	n := len(d.positions)
	switch d.policy {
	case Recent, Chronicle:
		// A Recent queue holds only its newest occurrence, so the oldest
		// chain is the newest one; Recent keeps it for reuse by later
		// terminators, Chronicle consumes it.
		chain := d.pickChain(0, 0, term)
		if chain == nil {
			return nil
		}
		if d.policy == Chronicle {
			d.consume(chain)
		}
		return compose(append(chain, term))
	case Continuous:
		// One completion per open initiator window. Only occurrences
		// strictly before the terminator participate or are consumed:
		// when the same event type both initiates and terminates (a
		// tick stream), the terminator's own just-opened window stays.
		// Picking only reads the queues, so the initiators are walked
		// in place and consumed after the loop.
		var out []*event.Instance
		for _, init := range d.positions[0].queue {
			// A bare non-occurrence (Seq 0) orders before nothing.
			if init.Seq == 0 || init.Seq >= term.Seq {
				continue
			}
			if chain := d.pickChain(1, init.Seq, term); chain != nil {
				chain[0] = init
				out = merge(out, compose(append(chain, term)))
			}
		}
		if len(out) > 0 {
			for _, pos := range d.positions[:n-1] {
				pos.queue = keepIf(pos.queue, func(o *event.Instance) bool { return o.Seq >= term.Seq })
			}
		}
		return out
	case Cumulative:
		if d.pickChain(0, 0, term) == nil {
			return nil
		}
		// The composite carries everything accumulated before the
		// terminator.
		all := d.chain[:0]
		for _, pos := range d.positions[:n-1] {
			pos.queue = keepIf(pos.queue, func(o *event.Instance) bool {
				if o.Seq < term.Seq {
					all = append(all, o)
					return false
				}
				return true
			})
		}
		d.chain = append(all, term)
		return compose(d.chain)
	}
	return nil
}

// pickChain fills the scratch from position from on with the oldest
// ascending chain after lower and before term, returning the whole
// scratch, or nil when no such chain exists. Positions before from are
// the caller's to fill.
func (d *seqDetector) pickChain(from int, lower uint64, term *event.Instance) []*event.Instance {
	chain := d.chain[:len(d.positions)-1]
	for i := from; i < len(chain); i++ {
		var pick *event.Instance
		for _, o := range d.positions[i].queue {
			if o.Seq > lower && o.Seq < term.Seq && (pick == nil || o.Seq < pick.Seq) {
				pick = o
			}
		}
		if pick == nil {
			return nil
		}
		chain[i] = pick
		lower = pick.Seq
	}
	return chain
}

// consume removes the chosen occurrences from their queues.
func (d *seqDetector) consume(chain []*event.Instance) {
	for i, used := range chain {
		pos := d.positions[i]
		if j := slices.Index(pos.queue, used); j >= 0 {
			pos.queue = slices.Delete(pos.queue, j, j+1)
		}
	}
}

func (d *seqDetector) flush(now time.Time) []*event.Instance {
	// Sub-detector flushes may complete end positions.
	var fired []*event.Instance
	last := len(d.positions) - 1
	for i, pos := range d.positions {
		for _, c := range pos.det.flush(now) {
			if i == last {
				fired = merge(fired, d.completeWith(c))
			} else {
				pos.retain(c, d.policy)
			}
		}
	}
	return fired
}

func (d *seqDetector) reset() {
	for _, pos := range d.positions {
		pos.queue = truncate(pos.queue)
		pos.det.reset()
	}
	for _, g := range d.guards {
		g.det.reset()
	}
	d.chain = truncate(d.chain)
}

func (d *seqDetector) pending() int {
	n := 0
	for _, pos := range d.positions {
		n += len(pos.queue) + pos.det.pending()
	}
	for _, g := range d.guards {
		n += g.det.pending()
	}
	return n
}

func (d *seqDetector) expire(cutoff time.Time) int {
	n := 0
	for _, pos := range d.positions {
		var dropped int
		pos.queue, dropped = expireBefore(pos.queue, cutoff)
		n += dropped + pos.det.expire(cutoff)
	}
	for _, g := range d.guards {
		n += g.det.expire(cutoff)
	}
	return n
}

// ---- conjunction ----

func (x Conj) build(p Policy) detector {
	d := &conjDetector{policy: p}
	for _, e := range x.Exprs {
		d.positions = append(d.positions, &seqPosition{det: e.build(p)})
	}
	d.parts = make([]*event.Instance, 0, len(d.positions))
	return d
}

type conjDetector struct {
	positions []*seqPosition
	policy    Policy
	parts     []*event.Instance // scratch a completion is gathered into
}

func (d *conjDetector) feed(in *event.Instance) []*event.Instance {
	for _, pos := range d.positions {
		for _, c := range pos.det.feed(in) {
			pos.retain(c, d.policy)
		}
	}
	return d.tryComplete()
}

func (d *conjDetector) tryComplete() []*event.Instance {
	for _, pos := range d.positions {
		if len(pos.queue) == 0 {
			return nil
		}
	}
	parts := d.parts[:0]
	switch d.policy {
	case Cumulative:
		for _, pos := range d.positions {
			parts = append(parts, pos.queue...)
			pos.queue = truncate(pos.queue)
		}
	default:
		// Recent and chronicle (and continuous, which for an unordered
		// conjunction degenerates to chronicle): one occurrence per
		// position — oldest for chronicle/continuous, the only one for
		// recent — consumed on firing.
		for _, pos := range d.positions {
			parts = append(parts, pos.queue[0])
			pos.queue = slices.Delete(pos.queue, 0, 1)
		}
	}
	d.parts = parts
	return compose(parts)
}

func (d *conjDetector) flush(now time.Time) []*event.Instance {
	for _, pos := range d.positions {
		for _, c := range pos.det.flush(now) {
			pos.retain(c, d.policy)
		}
	}
	return d.tryComplete()
}

func (d *conjDetector) reset() {
	for _, pos := range d.positions {
		pos.queue = truncate(pos.queue)
		pos.det.reset()
	}
	d.parts = truncate(d.parts)
}

func (d *conjDetector) pending() int {
	n := 0
	for _, pos := range d.positions {
		n += len(pos.queue) + pos.det.pending()
	}
	return n
}

func (d *conjDetector) expire(cutoff time.Time) int {
	n := 0
	for _, pos := range d.positions {
		var dropped int
		pos.queue, dropped = expireBefore(pos.queue, cutoff)
		n += dropped + pos.det.expire(cutoff)
	}
	return n
}

// ---- negation (standalone) ----

func (x Neg) build(p Policy) detector { return &negDetector{det: x.Of.build(p)} }

type negDetector struct {
	det      detector
	poisoned bool
}

func (d *negDetector) feed(in *event.Instance) []*event.Instance {
	if len(d.det.feed(in)) > 0 {
		d.poisoned = true
	}
	return nil
}

func (d *negDetector) flush(now time.Time) []*event.Instance {
	if d.poisoned {
		return nil
	}
	// Non-occurrence completes at the end of the interval; the
	// instance carries no parts — its meaning is the silence itself.
	return []*event.Instance{{Kind: event.KindComposite, Time: now}}
}

func (d *negDetector) reset() {
	d.poisoned = false
	d.det.reset()
}

func (d *negDetector) pending() int { return d.det.pending() }

func (d *negDetector) expire(cutoff time.Time) int { return d.det.expire(cutoff) }

// ---- closure ----

func (x Closure) build(p Policy) detector { return &closureDetector{det: x.Of.build(p)} }

type closureDetector struct {
	det  detector
	seen []*event.Instance
}

func (d *closureDetector) feed(in *event.Instance) []*event.Instance {
	d.seen = append(d.seen, d.det.feed(in)...)
	return nil
}

func (d *closureDetector) flush(now time.Time) []*event.Instance {
	d.seen = append(d.seen, d.det.flush(now)...)
	if len(d.seen) == 0 {
		return nil
	}
	out := compose(d.seen)
	d.seen = truncate(d.seen)
	return out
}

func (d *closureDetector) reset() {
	d.seen = truncate(d.seen)
	d.det.reset()
}

func (d *closureDetector) pending() int { return len(d.seen) + d.det.pending() }

func (d *closureDetector) expire(cutoff time.Time) int {
	var n int
	d.seen, n = expireBefore(d.seen, cutoff)
	return n + d.det.expire(cutoff)
}

// ---- history ----

func (x History) build(p Policy) detector {
	return &historyDetector{det: x.Of.build(p), count: x.Count}
}

type historyDetector struct {
	det   detector
	count int
	seen  []*event.Instance
}

func (d *historyDetector) feed(in *event.Instance) []*event.Instance {
	var out []*event.Instance
	for _, c := range d.det.feed(in) {
		d.seen = append(d.seen, c)
		if len(d.seen) >= d.count {
			out = merge(out, compose(d.seen))
			d.seen = truncate(d.seen)
		}
	}
	return out
}

func (d *historyDetector) flush(time.Time) []*event.Instance { return nil }

func (d *historyDetector) reset() {
	d.seen = truncate(d.seen)
	d.det.reset()
}

func (d *historyDetector) pending() int { return len(d.seen) + d.det.pending() }

func (d *historyDetector) expire(cutoff time.Time) int {
	var n int
	d.seen, n = expireBefore(d.seen, cutoff)
	return n + d.det.expire(cutoff)
}
