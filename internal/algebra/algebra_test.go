package algebra

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
)

var base = time.Date(1995, 3, 6, 0, 0, 0, 0, time.UTC)

// ev builds a primitive occurrence with sequence number seq.
func ev(key string, seq uint64, txn uint64) *event.Instance {
	return &event.Instance{
		SpecKey: key,
		Kind:    event.KindMethod,
		Seq:     seq,
		Txn:     txn,
		Time:    base.Add(time.Duration(seq) * time.Second),
	}
}

func mustComposer(t *testing.T, c *Composite) *Composer {
	t.Helper()
	cp, err := NewComposer(c)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func seq2(policy Policy) *Composite {
	return &Composite{
		Name:   "s",
		Expr:   Seq{Exprs: []Expr{Prim{Key: "E1"}, Prim{Key: "E2"}}},
		Policy: policy,
		Scope:  ScopeTransaction,
	}
}

func TestSeqBasicFiresInOrder(t *testing.T) {
	cp := mustComposer(t, seq2(Chronicle))
	if got := cp.Feed(ev("E1", 1, 1)); len(got) != 0 {
		t.Fatalf("fired on initiator: %v", got)
	}
	got := cp.Feed(ev("E2", 2, 1))
	if len(got) != 1 {
		t.Fatalf("fired %d, want 1", len(got))
	}
	in := got[0]
	if in.SpecKey != "composite:s" || in.Kind != event.KindComposite {
		t.Fatalf("completion identity wrong: %+v", in)
	}
	if len(in.Parts) != 2 || in.Parts[0].SpecKey != "E1" || in.Parts[1].SpecKey != "E2" {
		t.Fatalf("parts = %v", in.Parts)
	}
	if in.Txn != 1 {
		t.Fatalf("single-txn composite Txn = %d, want 1", in.Txn)
	}
}

func TestMultiTxnCompositeTxnZero(t *testing.T) {
	c := &Composite{
		Name:     "x",
		Expr:     Seq{Exprs: []Expr{Prim{Key: "E1"}, Prim{Key: "E2"}}},
		Policy:   Chronicle,
		Scope:    ScopeGlobal,
		Validity: time.Hour,
	}
	cp := mustComposer(t, c)
	cp.Feed(ev("E1", 1, 7))
	got := cp.Feed(ev("E2", 2, 8))
	if len(got) != 1 {
		t.Fatal("cross-txn composite did not fire")
	}
	if got[0].Txn != 0 {
		t.Fatalf("multi-txn composite Txn = %d, want 0", got[0].Txn)
	}
	txns := got[0].Transactions()
	if !txns[7] || !txns[8] {
		t.Fatalf("constituent txns = %v", txns)
	}
}

func TestGlobalScopeRequiresValidity(t *testing.T) {
	c := &Composite{
		Name:   "bad",
		Expr:   Seq{Exprs: []Expr{Prim{Key: "E1"}, Prim{Key: "E2"}}},
		Policy: Chronicle,
		Scope:  ScopeGlobal,
	}
	if _, err := NewComposer(c); err == nil {
		t.Fatal("global composite without validity accepted")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []Expr{
		nil,
		Prim{},
		Seq{Exprs: []Expr{Prim{Key: "A"}}},
		Seq{Exprs: []Expr{Neg{Of: Prim{Key: "A"}}, Prim{Key: "B"}}},
		Seq{Exprs: []Expr{Prim{Key: "A"}, Neg{Of: Prim{Key: "B"}}}},
		Seq{Exprs: []Expr{Prim{Key: "A"}, Neg{Of: Prim{Key: "B"}}, Neg{Of: Prim{Key: "C"}}}},
		Conj{Exprs: []Expr{Prim{Key: "A"}}},
		Disj{},
		Neg{Of: Neg{Of: Prim{Key: "A"}}},
		History{Of: Prim{Key: "A"}, Count: 0},
	}
	for i, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("case %d: Validate(%v) accepted malformed expression", i, e)
		}
	}
	good := []Expr{
		Prim{Key: "A"},
		Seq{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}}},
		Seq{Exprs: []Expr{Prim{Key: "A"}, Neg{Of: Prim{Key: "B"}}, Prim{Key: "C"}}},
		Closure{Of: Prim{Key: "A"}},
		History{Of: Prim{Key: "A"}, Count: 2},
		Neg{Of: Prim{Key: "A"}},
	}
	for i, e := range good {
		if err := Validate(e); err != nil {
			t.Errorf("case %d: Validate(%v) rejected valid expression: %v", i, e, err)
		}
	}
}

func TestPrimitiveKeys(t *testing.T) {
	e := Seq{Exprs: []Expr{
		Prim{Key: "A"},
		Neg{Of: Prim{Key: "B"}},
		Conj{Exprs: []Expr{Prim{Key: "C"}, Prim{Key: "A"}}},
	}}
	keys := PrimitiveKeys(e)
	if len(keys) != 3 {
		t.Fatalf("PrimitiveKeys = %v, want 3 distinct", keys)
	}
}

func TestExprStrings(t *testing.T) {
	e := Seq{Exprs: []Expr{
		Prim{Key: "A"},
		Neg{Of: Prim{Key: "B"}},
		Disj{Exprs: []Expr{Prim{Key: "C"}, History{Of: Prim{Key: "D"}, Count: 2}}},
		Closure{Of: Prim{Key: "E"}},
	}}
	s := e.String()
	if s == "" {
		t.Fatal("empty String")
	}
	for _, sub := range []string{"A", "!B", "C", "times(2, D)", "E*"} {
		if !strings.Contains(s, sub) {
			t.Errorf("String %q missing %q", s, sub)
		}
	}
	for _, p := range []Policy{Recent, Chronicle, Continuous, Cumulative} {
		if p.String() == "" {
			t.Errorf("Policy %d empty String", p)
		}
	}
	if ScopeTransaction.String() == ScopeGlobal.String() {
		t.Error("scope strings identical")
	}
}

func TestListensAndKeys(t *testing.T) {
	cp := mustComposer(t, seq2(Chronicle))
	if !cp.Listens("E1") || !cp.Listens("E2") || cp.Listens("E3") {
		t.Fatal("Listens wrong")
	}
	if len(cp.Keys()) != 2 {
		t.Fatalf("Keys = %v", cp.Keys())
	}
}

func TestCompositeKeyAndValidation(t *testing.T) {
	c := &Composite{Name: "c", Expr: Conj{Exprs: []Expr{Prim{Key: "A"}, Prim{Key: "B"}}}, Policy: Chronicle, Scope: ScopeTransaction}
	if want := (event.CompositeSpec{Name: "c"}).Key(); c.Key() != want {
		t.Fatalf("Key = %q, want %q", c.Key(), want)
	}
	if err := (&Composite{Name: "", Expr: Prim{Key: "A"}, Policy: Chronicle, Scope: ScopeTransaction}).Validate(); err == nil {
		t.Fatal("nameless composite validated")
	}
	if err := (&Composite{Name: "x", Expr: Prim{Key: "A"}, Policy: Chronicle}).Validate(); err == nil {
		t.Fatal("scopeless composite validated")
	}
	if err := (&Composite{Name: "x", Expr: Prim{Key: "A"}, Scope: ScopeTransaction}).Validate(); err == nil {
		t.Fatal("policyless composite validated")
	}
}

// example is one row of the example table: a script played on the
// reference interpreter and on a composer (play), and what it must give.
type example struct {
	test, sub string // the test that runs the row, and its subtest ("" for none)
	expr      Expr
	policy    Policy
	validity  time.Duration // 0: transaction scope, no validity interval
	// script lists steps: "A3" feeds an occurrence of A with Seq 3 at
	// base+3s; "flush@60" and "expire@30" call Flush and Expire at
	// base+60s and base+30s, "reset" calls Reset and "pending" reads
	// Pending.
	script string
	// want lists the steps' outcomes (play) as step=outcome, leaving out
	// feeds and flushes that complete nothing. A completion is the tuple
	// of its leaves' Seq numbers; "!60" is a non-occurrence signalled at
	// base+60s.
	want string
}

var pa, pb, pc, pd, px Expr = Prim{Key: "A"}, Prim{Key: "B"}, Prim{Key: "C"}, Prim{Key: "D"}, Prim{Key: "X"}

var (
	seqAB  = Seq{Exprs: []Expr{pa, pb}}
	conjAB = Conj{Exprs: []Expr{pa, pb}}
)

var examples = []example{
	// The paper's §3.4 example: e1, e1', e2 arrive; which e1 is used?
	{"TestConsumptionPolicyPaperExample", "recent uses e1'", seqAB, Recent, 0, "A1 A2 B3", "B3=[2 3]"},
	{"TestConsumptionPolicyPaperExample", "chronicle uses e1", seqAB, Chronicle, 0, "A1 A2 B3", "B3=[1 3]"},
	{"TestConsumptionPolicyPaperExample", "continuous fires one window per initiator", seqAB, Continuous, 0, "A1 A2 B3", "B3=[1 3][2 3]"},
	{"TestConsumptionPolicyPaperExample", "cumulative carries both", seqAB, Cumulative, 0, "A1 A2 B3", "B3=[1 2 3]"},
	{"TestSeqOutOfOrderDoesNotFire", "", seqAB, Chronicle, 0, "B1 A2 B3", "B3=[2 3]"},
	{"TestChronicleConsumesInOrder", "", seqAB, Chronicle, 0, "A1 A2 B3 B4 B5", "B3=[1 3] B4=[2 4]"},
	{"TestRecentReusesInitiator", "", seqAB, Recent, 0, "A1 B2 B3", "B2=[1 2] B3=[1 3]"},
	{"TestSeqThreeStage", "", Seq{Exprs: []Expr{pa, pb, pc}}, Chronicle, 0, "B1 A2 C3 B4 C5", "C5=[2 4 5]"},
	{"TestSeqWithNegationGuard", "", Seq{Exprs: []Expr{pa, Neg{Of: pb}, pc}}, Chronicle, 0, "A1 B2 C3 A4 C5", "C5=[4 5]"},
	// X kills the pending A, not the B after the guard; the old B cannot
	// follow a fresh A.
	{"TestSeqGuardOnlyKillsProtectedPrefix", "", Seq{Exprs: []Expr{pa, Neg{Of: px}, pb, pc}}, Chronicle, 0, "A1 B2 X3 C4 A5 B6 C7", "C7=[5 6 7]"},
	{"TestNestedComposition", "", Seq{Exprs: []Expr{conjAB, pc}}, Chronicle, 0, "B1 C2 A3 C4", "C4=[3 1 4]"},
	{"TestFlushDiscardsSemiComposed", "", seqAB, Chronicle, 0, "A1 pending flush@0 pending B2", "pending=1 pending=0"},
	// A40 sits exactly at the cutoff of expire@50, which keeps it.
	{"TestValidityExpiry", "", seqAB, Chronicle, 10 * time.Second, "A1 expire@30 B2 A40 expire@45 expire@50 expire@51", "expire@30=1 expire@45=0 expire@50=0 expire@51=1"},
	// A non-occurrence signalled at flush has no Seq: it orders before nothing.
	{"TestNonOccurrenceOpensNoSequence", "recent", Seq{Exprs: []Expr{Disj{Exprs: []Expr{Neg{Of: pa}, pb}}, Closure{Of: pc}}}, Recent, 0, "C1 flush@60", ""},
	{"TestNonOccurrenceOpensNoSequence", "continuous", Seq{Exprs: []Expr{Disj{Exprs: []Expr{Neg{Of: pa}, pb}}, Closure{Of: pc}}}, Continuous, 0, "C1 flush@60", ""},
	{"TestConjAnyOrder", "", conjAB, Chronicle, 0, "B1 A2", "A2=[2 1]"},
	{"TestConjRecentKeepsLatestOnly", "", conjAB, Recent, 0, "A1 A2 B3", "B3=[2 3]"},
	// The closure of B completes at flush, after A: Recent takes it.
	{"TestConjRecentKeepsLatestOnly", "at flush", Conj{Exprs: []Expr{Disj{Exprs: []Expr{pa, Closure{Of: pb}}}, Closure{Of: pc}}}, Recent, 0, "A1 B2 C3 flush@60", "flush@60=[2 3]"},
	{"TestConjChronicleConsumesOldest", "", conjAB, Chronicle, 0, "A1 A2 B3 B4 B5", "B3=[1 3] B4=[2 4]"},
	{"TestConjCumulativeCarriesAll", "", conjAB, Cumulative, 0, "A1 A2 A3 B4 pending", "B4=[1 2 3 4] pending=0"},
	{"TestConjThreeWay", "", Conj{Exprs: []Expr{pa, pb, pc}}, Chronicle, 0, "C1 A2 A3 B4", "B4=[2 4 1]"},
	{"TestNegInsideConj", "", Conj{Exprs: []Expr{pa, Neg{Of: pb}}}, Chronicle, 0, "A1 flush@60 A2 B3 flush@120", "flush@60=[1 !60]"},
	{"TestDisjEitherFires", "", Disj{Exprs: []Expr{pa, pb}}, Chronicle, 0, "A1 B2 C3", "A1=[1] B2=[2]"},
	{"TestDisjOfSeqs", "", Disj{Exprs: []Expr{seqAB, Seq{Exprs: []Expr{pc, pd}}}}, Chronicle, 0, "A1 C2 D3 B4", "D3=[2 3] B4=[1 4]"},
	{"TestStandaloneNegationFiresAtFlush", "", Neg{Of: pa}, Chronicle, 0, "flush@60 A1 flush@120 flush@180", "flush@60=[!60] flush@180=[!180]"},
	{"TestClosureCollapsesAtFlush", "", Closure{Of: pa}, Chronicle, 0, "A1 A2 A3 A4 A5 flush@60 flush@120", "flush@60=[1 2 3 4 5]"},
	{"TestClosureOfSeq", "", Closure{Of: seqAB}, Chronicle, 0, "A1 B2 A3 B4 flush@60", "flush@60=[1 2 3 4]"},
	{"TestHistoryCountFires", "", History{Of: pa, Count: 3}, Chronicle, 0, "A1 A2 A3 A4 A5 A6", "A3=[1 2 3] A6=[4 5 6]"},
	{"TestHistoryOfConj", "", History{Of: conjAB, Count: 2}, Chronicle, 0, "A1 B2 B3 A4", "A4=[1 2 4 3]"},
}

// runExamples plays the example rows of the calling test.
func runExamples(t *testing.T) {
	ran := false
	for _, ex := range examples {
		if ex.test != t.Name() {
			continue
		}
		ran = true
		if ex.sub == "" {
			ex.check(t)
		} else {
			t.Run(ex.sub, ex.check)
		}
	}
	if !ran {
		t.Fatal("no example rows")
	}
}

func (ex example) check(t *testing.T) {
	comp := &Composite{Name: "ex", Expr: ex.expr, Policy: ex.policy, Scope: ScopeTransaction}
	if ex.validity > 0 {
		comp.Scope, comp.Validity = ScopeGlobal, ex.validity
	}
	ref, cp := newReference(comp), mustComposer(t, comp)
	var got []string
	for _, tok := range strings.Fields(ex.script) {
		s := step{op: tok}
		if op, at, timed := strings.Cut(tok, "@"); timed {
			secs, _ := strconv.Atoi(at)
			s = step{op: op, at: base.Add(time.Duration(secs) * time.Second)}
		} else if key := strings.TrimRight(tok, "0123456789"); key != tok {
			s.op = key
			s.seq, _ = strconv.ParseUint(tok[len(key):], 10, 64)
			s.at = base.Add(time.Duration(s.seq) * time.Second)
		}
		if out := play(t, ref, s, cp); out != "" {
			got = append(got, tok+"="+out)
		}
	}
	if g := strings.Join(got, " "); g != ex.want {
		t.Errorf("%v %v, %s:\n got %s\nwant %s", ex.expr, ex.policy, ex.script, g, ex.want)
	}
}

// Each of these runs its rows of the example table.
func TestConsumptionPolicyPaperExample(t *testing.T)    { runExamples(t) }
func TestSeqOutOfOrderDoesNotFire(t *testing.T)         { runExamples(t) }
func TestChronicleConsumesInOrder(t *testing.T)         { runExamples(t) }
func TestRecentReusesInitiator(t *testing.T)            { runExamples(t) }
func TestSeqThreeStage(t *testing.T)                    { runExamples(t) }
func TestSeqWithNegationGuard(t *testing.T)             { runExamples(t) }
func TestSeqGuardOnlyKillsProtectedPrefix(t *testing.T) { runExamples(t) }
func TestNestedComposition(t *testing.T)                { runExamples(t) }
func TestFlushDiscardsSemiComposed(t *testing.T)        { runExamples(t) }
func TestValidityExpiry(t *testing.T)                   { runExamples(t) }
func TestNonOccurrenceOpensNoSequence(t *testing.T)     { runExamples(t) }
func TestConjAnyOrder(t *testing.T)                     { runExamples(t) }
func TestConjRecentKeepsLatestOnly(t *testing.T)        { runExamples(t) }
func TestConjChronicleConsumesOldest(t *testing.T)      { runExamples(t) }
func TestConjCumulativeCarriesAll(t *testing.T)         { runExamples(t) }
func TestConjThreeWay(t *testing.T)                     { runExamples(t) }
func TestNegInsideConj(t *testing.T)                    { runExamples(t) }
func TestDisjEitherFires(t *testing.T)                  { runExamples(t) }
func TestDisjOfSeqs(t *testing.T)                       { runExamples(t) }
func TestStandaloneNegationFiresAtFlush(t *testing.T)   { runExamples(t) }
func TestClosureCollapsesAtFlush(t *testing.T)          { runExamples(t) }
func TestClosureOfSeq(t *testing.T)                     { runExamples(t) }
func TestHistoryCountFires(t *testing.T)                { runExamples(t) }
func TestHistoryOfConj(t *testing.T)                    { runExamples(t) }
