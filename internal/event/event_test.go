package event

import (
	"testing"
	"time"
)

func TestSpecKeysDistinct(t *testing.T) {
	specs := []Spec{
		MethodSpec{Class: "River", Method: "updateWaterLevel", When: After},
		MethodSpec{Class: "River", Method: "updateWaterLevel", When: Before},
		MethodSpec{Class: "River", Method: "getWaterTemp", When: After},
		MethodSpec{Class: "Reactor", Method: "updateWaterLevel", When: After},
		StateSpec{Class: "River", Attr: "level"},
		StateSpec{Class: "River", Attr: "temp"},
		TxnSpec{Phase: BOT},
		TxnSpec{Phase: EOT},
		TxnSpec{Phase: Commit},
		TxnSpec{Phase: Abort},
		TemporalSpec{Temporal: Absolute, At: time.Unix(100, 0)},
		TemporalSpec{Temporal: Absolute, At: time.Unix(200, 0)},
		TemporalSpec{Temporal: Relative, Delay: time.Second},
		TemporalSpec{Temporal: Periodic, Period: time.Second},
		TemporalSpec{Temporal: MilestoneKind, Delay: time.Second},
		CompositeSpec{Name: "dow-drop"},
	}
	seen := map[string]Spec{}
	for _, s := range specs {
		k := s.Key()
		if k == "" {
			t.Fatalf("%+v has empty key", s)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision %q between %+v and %+v", k, prev, s)
		}
		seen[k] = s
	}
}

func TestSpecKinds(t *testing.T) {
	cases := []struct {
		spec Spec
		want Kind
	}{
		{MethodSpec{}, KindMethod},
		{StateSpec{}, KindState},
		{TxnSpec{}, KindTxn},
		{TemporalSpec{}, KindTemporal},
		{CompositeSpec{}, KindComposite},
	}
	for _, c := range cases {
		if got := c.spec.Kind(); got != c.want {
			t.Errorf("%T Kind() = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindMethod, KindState, KindTxn, KindTemporal, KindComposite} {
		if k.String() == "" {
			t.Errorf("Kind %d has empty String", k)
		}
	}
	for _, p := range []TxnPhase{BOT, EOT, Commit, Abort} {
		if p.String() == "" {
			t.Errorf("TxnPhase %d has empty String", p)
		}
	}
	if Before.String() != "before" || After.String() != "after" {
		t.Error("When strings wrong")
	}
}

func TestInstanceTransactionsPrimitive(t *testing.T) {
	in := &Instance{SpecKey: "method:A.m:after", Kind: KindMethod, Txn: 7}
	txns := in.Transactions()
	if len(txns) != 1 || !txns[7] {
		t.Fatalf("Transactions = %v, want {7}", txns)
	}
}

func TestInstanceTransactionsTemporal(t *testing.T) {
	in := &Instance{SpecKey: "time:abs:x:1", Kind: KindTemporal, Txn: 0}
	if txns := in.Transactions(); len(txns) != 0 {
		t.Fatalf("temporal Transactions = %v, want empty", txns)
	}
}

func TestInstanceTransactionsComposite(t *testing.T) {
	comp := &Instance{
		SpecKey: "composite:c",
		Kind:    KindComposite,
		Parts: []*Instance{
			{SpecKey: "method:A.m:after", Txn: 1},
			{SpecKey: "composite:inner", Parts: []*Instance{
				{SpecKey: "method:B.m:after", Txn: 2},
				{SpecKey: "time:abs:x:1", Txn: 0},
			}},
			{SpecKey: "method:A.m:after", Txn: 1},
		},
	}
	txns := comp.Transactions()
	if len(txns) != 2 || !txns[1] || !txns[2] {
		t.Fatalf("Transactions = %v, want {1,2}", txns)
	}
}

func TestInstanceFlatten(t *testing.T) {
	p1 := &Instance{SpecKey: "a", Seq: 1}
	p2 := &Instance{SpecKey: "b", Seq: 2}
	p3 := &Instance{SpecKey: "c", Seq: 3}
	comp := &Instance{SpecKey: "outer", Parts: []*Instance{
		p1,
		{SpecKey: "inner", Parts: []*Instance{p2, p3}},
	}}
	flat := comp.Flatten()
	if len(flat) != 3 || flat[0] != p1 || flat[1] != p2 || flat[2] != p3 {
		t.Fatalf("Flatten = %v", flat)
	}
	if single := p1.Flatten(); len(single) != 1 || single[0] != p1 {
		t.Fatal("primitive Flatten should return itself")
	}
}

func TestInstanceString(t *testing.T) {
	withTxn := &Instance{SpecKey: "method:A.m:after", Seq: 5, Txn: 3}
	if withTxn.String() == "" {
		t.Fatal("empty String")
	}
	noTxn := &Instance{SpecKey: "time:abs:x:1", Seq: 6}
	if noTxn.String() == withTxn.String() {
		t.Fatal("distinct instances print identically")
	}
}

type pinCounter struct{ pins int }

func (p *pinCounter) Pin() { p.pins++ }

// Retain pins an Origin that can be pinned, once per call; Recycle
// leaves a retained instance alone.
func TestRetainPinsOrigin(t *testing.T) {
	origin := &pinCounter{}
	in := Get()
	in.Origin = origin
	in.Retain()
	if origin.pins != 1 {
		t.Fatalf("Retain pinned the Origin %d times, want 1", origin.pins)
	}
	Recycle(in)
	if in.Origin != origin {
		t.Fatal("Recycle cleared a retained instance")
	}
	plain := &Instance{Origin: "not a pinner"}
	plain.Retain() // an Origin that cannot be pinned is left alone
}
