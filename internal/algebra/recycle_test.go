package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/event"
)

// A composite whose root is a bare Prim or a Disj completes with the
// very occurrence it was fed. That instance is shared: with the
// histories and with every other composer it reaches. The completion
// must be a composite of its own, not the occurrence renamed.
func TestPassThroughRootLeavesSharedInstanceAlone(t *testing.T) {
	roots := map[string]Expr{
		"prim": Prim{Key: "E1"},
		"disj": Disj{Exprs: []Expr{Prim{Key: "E1"}, Prim{Key: "X"}}},
	}
	for name, root := range roots {
		t.Run(name, func(t *testing.T) {
			either := mustComposer(t, &Composite{Name: "either", Expr: root, Policy: Chronicle, Scope: ScopeTransaction})
			pair := mustComposer(t, seq2(Chronicle)) // E1;E2
			a, b := ev("E1", 1, 7), ev("E2", 2, 7)

			got := either.Feed(a)
			if len(got) != 1 {
				t.Fatalf("root %s fired %d times on its constituent, want 1", name, len(got))
			}
			comp := got[0]
			if comp == a {
				t.Fatal("the completion is the fed occurrence itself")
			}
			if a.SpecKey != "E1" || a.Kind != event.KindMethod {
				t.Fatalf("fed occurrence renamed to %s/%v", a.SpecKey, a.Kind)
			}
			if comp.SpecKey != "composite:either" || comp.Txn != 7 || comp.Seq != 1 {
				t.Fatalf("completion = %s seq %d txn %d, want composite:either seq 1 txn 7", comp.SpecKey, comp.Seq, comp.Txn)
			}
			if flat := comp.Flatten(); len(flat) != 1 || flat[0] != a {
				t.Fatalf("completion's constituents = %v, want the fed occurrence", flat)
			}
			if pair.Feed(a); len(pair.Feed(b)) != 1 {
				t.Fatal("a composer sharing the occurrence missed its completion")
			}
		})
	}
}

func TestComposerAllocationCeilings(t *testing.T) {
	tri := mustComposer(t, &Composite{Name: "tri", Policy: Chronicle, Scope: ScopeTransaction,
		Expr: Seq{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}, Prim{Key: "C"}}}})
	a, b, c, other := ev("A", 1, 1), ev("B", 2, 1), ev("C", 3, 1), ev("Z", 4, 1)
	now := base.Add(time.Minute)

	half := func() {
		tri.Feed(a)
		tri.Feed(b)
		tri.Feed(other)
		tri.Flush(now)
	}
	half() // the queues get their backing arrays
	if n := testing.AllocsPerRun(100, half); n != 0 {
		t.Errorf("feeds that complete nothing, then a flush: %.0f allocations, want 0", n)
	}

	var fired int
	full := func() {
		tri.Feed(a)
		tri.Feed(b)
		fired += len(tri.Feed(c))
		tri.Flush(now)
	}
	full()
	if n := testing.AllocsPerRun(100, full); n > 2 {
		t.Errorf("a Seq completion: %.0f allocations, ceiling 2 (the instance and its Parts)", n)
	}
	if fired != 102 {
		t.Fatalf("tri completed %d times in 102 runs", fired)
	}
}

// oracleExprs covers every operator: Seq with and without a guard (one
// guard with state of its own), Conj, Disj, standalone negation,
// closure and history, nested where nesting gives a node state.
var oracleExprs = []Expr{
	Seq{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}, Prim{Key: "C"}}},
	Seq{Exprs: []Expr{Prim{Key: "A"}, Neg{Of: Prim{Key: "X"}}, Prim{Key: "C"}}},
	Seq{Exprs: []Expr{Prim{Key: "A"}, Neg{Of: Seq{Exprs: []Expr{Prim{Key: "B"}, Prim{Key: "X"}}}}, Prim{Key: "C"}}},
	Seq{Exprs: []Expr{Conj{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}}}, Prim{Key: "C"}}},
	Conj{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}, Prim{Key: "C"}}},
	Conj{Exprs: []Expr{Prim{Key: "A"}, Neg{Of: Prim{Key: "X"}}}},
	Disj{Exprs: []Expr{Seq{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}}}, Prim{Key: "C"}}},
	Closure{Of: Prim{Key: "B"}},
	History{Of: Prim{Key: "A"}, Count: 2},
	Seq{Exprs: []Expr{History{Of: Prim{Key: "A"}, Count: 2}, Closure{Of: Prim{Key: "X"}}}},
}

// completionView is what a completion must agree on between a fresh
// and a recycled composer.
func completionView(in *event.Instance) string {
	var seqs []uint64
	in.Leaves(func(p *event.Instance) bool {
		seqs = append(seqs, p.Seq)
		return true
	})
	return fmt.Sprintf("%s seq=%d txn=%d parts=%v", in.SpecKey, in.Seq, in.Txn, seqs)
}

func views(ins []*event.Instance) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = completionView(in)
	}
	return out
}

// Each transaction's stream goes to a fresh composer and to one composer
// recycled through Flush (commit) or Reset (abort) since the first
// transaction. Whatever the recycled one keeps across its resets shows up
// as a completion the fresh one does not make, or misses.
func TestRecycledComposerMatchesFresh(t *testing.T) {
	alphabet := []string{"A", "B", "C", "X"}
	for ei, expr := range oracleExprs {
		for _, policy := range []Policy{Recent, Chronicle, Continuous, Cumulative} {
			comp := &Composite{Name: fmt.Sprintf("o%d", ei), Expr: expr, Policy: policy, Scope: ScopeTransaction}
			t.Run(fmt.Sprintf("%v/%v", expr, policy), func(t *testing.T) {
				for seed := int64(1); seed <= 8; seed++ {
					rng := rand.New(rand.NewSource(seed))
					recycled := mustComposer(t, comp)
					seq := uint64(0)
					for tx := uint64(1); tx <= 40; tx++ {
						fresh := mustComposer(t, comp)
						var want, got []*event.Instance
						for n := rng.Intn(9); n > 0; n-- {
							seq++
							in := ev(alphabet[rng.Intn(len(alphabet))], seq, tx)
							want = append(want, fresh.Feed(in)...)
							got = append(got, recycled.Feed(in)...)
						}
						now := base.Add(time.Duration(seq) * time.Second)
						if rng.Intn(4) == 0 {
							recycled.Reset() // abort: the fresh composer is dropped
						} else {
							want = append(want, fresh.Flush(now)...)
							got = append(got, recycled.Flush(now)...)
						}
						if w, g := views(want), views(got); !slices.Equal(w, g) {
							t.Fatalf("seed %d txn %d: recycled composer completed\n  %v\nfresh one\n  %v", seed, tx, g, w)
						}
						if p := recycled.Pending(); p != 0 {
							t.Fatalf("seed %d txn %d: %d occurrences pending after the life-span ended", seed, tx, p)
						}
						if pinned := pins(recycled.root); pinned != "" {
							t.Fatalf("seed %d txn %d: recycled composer still holds an instance in %s", seed, tx, pinned)
						}
					}
				}
			})
		}
	}
}

// pins names the first buffer of the graph under d that still refers to
// an instance anywhere in its capacity, or returns "".
func pins(d detector) string {
	held := func(q []*event.Instance) bool {
		return slices.ContainsFunc(q[:cap(q)], func(in *event.Instance) bool { return in != nil })
	}
	switch x := d.(type) {
	case *primDetector:
		if x.buf[0] != nil {
			return "prim " + x.key
		}
	case *disjDetector:
		for _, s := range x.subs {
			if p := pins(s); p != "" {
				return p
			}
		}
	case *seqDetector:
		if held(x.chain) {
			return "seq scratch"
		}
		for i, pos := range x.positions {
			if held(pos.queue) {
				return fmt.Sprintf("seq queue %d", i)
			}
			if p := pins(pos.det); p != "" {
				return p
			}
		}
		for _, g := range x.guards {
			if p := pins(g.det); p != "" {
				return p
			}
		}
	case *conjDetector:
		if held(x.parts) {
			return "conj scratch"
		}
		for i, pos := range x.positions {
			if held(pos.queue) {
				return fmt.Sprintf("conj queue %d", i)
			}
			if p := pins(pos.det); p != "" {
				return p
			}
		}
	case *negDetector:
		return pins(x.det)
	case *closureDetector:
		if held(x.seen) {
			return "closure"
		}
		return pins(x.det)
	case *historyDetector:
		if held(x.seen) {
			return "history"
		}
		return pins(x.det)
	}
	return ""
}
