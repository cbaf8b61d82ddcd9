package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: every completion of any Seq policy is internally ordered
// (constituent Seq numbers strictly ascending for recent/chronicle).
func TestSeqCompletionsOrderedProperty(t *testing.T) {
	policies := []Policy{Recent, Chronicle}
	f := func(pattern []bool, pIdx uint8) bool {
		policy := policies[int(pIdx)%len(policies)]
		cp, err := NewComposer(seq2(policy))
		if err != nil {
			return false
		}
		for i, isE1 := range pattern {
			key := "E2"
			if isE1 {
				key = "E1"
			}
			for _, fired := range cp.Feed(ev(key, uint64(i+1), 1)) {
				prev := uint64(0)
				for _, p := range fired.Parts {
					if p.Seq <= prev {
						return false
					}
					prev = p.Seq
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Flush always empties semi-composed state, regardless of
// operator and stream.
func TestFlushAlwaysEmptiesProperty(t *testing.T) {
	exprs := []Expr{
		Seq{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}, Prim{Key: "C"}}},
		Conj{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}}},
		Closure{Of: Prim{Key: "A"}},
		History{Of: Prim{Key: "A"}, Count: 5},
		Seq{Exprs: []Expr{Prim{Key: "A"}, Neg{Of: Prim{Key: "B"}}, Prim{Key: "C"}}},
	}
	keys := []string{"A", "B", "C"}
	f := func(seed int64, exprIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := &Composite{
			Name:   "p",
			Expr:   exprs[int(exprIdx)%len(exprs)],
			Policy: Chronicle,
			Scope:  ScopeTransaction,
		}
		cp, err := NewComposer(c)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			cp.Feed(ev(keys[rng.Intn(len(keys))], uint64(i+1), 1))
		}
		cp.Flush(base.Add(time.Hour))
		return cp.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
