package oodb

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestCodecRoundTripAllTypes(t *testing.T) {
	values := []any{
		int64(-42),
		float64(3.14159),
		"hello, Welt",
		true,
		false,
		OID(777),
		time.Date(1995, 3, 6, 12, 0, 0, 0, time.UTC),
		[]byte{0x01, 0x02, 0xFF},
		nil,
		[]any{int64(1), "two", float64(3)},
	}
	rec, err := appendObject(nil, 5, "Mixed", values)
	if err != nil {
		t.Fatal(err)
	}
	oid, class, got, err := decodeObject(rec)
	if err != nil {
		t.Fatal(err)
	}
	if oid != 5 || class != "Mixed" {
		t.Fatalf("oid/class = %v/%v", oid, class)
	}
	if len(got) != len(values) {
		t.Fatalf("decoded %d values, want %d", len(got), len(values))
	}
	for i, want := range values {
		if w, ok := want.(time.Time); ok {
			if !got[i].(time.Time).Equal(w) {
				t.Fatalf("value %d = %v, want %v", i, got[i], w)
			}
			continue
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("value %d = %#v, want %#v", i, got[i], want)
		}
	}
}

func TestCodecFloatSpecials(t *testing.T) {
	values := []any{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	rec, err := appendObject(nil, 1, "F", values)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := decodeObject(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range values {
		if got[i] != want {
			t.Fatalf("float %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestCodecUnsupportedType(t *testing.T) {
	if _, err := appendObject(nil, 1, "X", []any{struct{}{}}); err == nil {
		t.Fatal("encoding unsupported type succeeded")
	}
}

func TestCodecCorruptRecords(t *testing.T) {
	rec, _ := appendObject(nil, 9, "C", []any{int64(1), "abc"})
	for cut := 0; cut < len(rec); cut++ {
		if _, _, _, err := decodeObject(rec[:cut]); err == nil {
			t.Fatalf("decoding truncation at %d succeeded", cut)
		}
	}
	bad := append([]byte(nil), rec...)
	bad[0] = 99
	if _, _, _, err := decodeObject(bad); err == nil {
		t.Fatal("decoding bad record tag succeeded")
	}
}

func TestRootsRoundTrip(t *testing.T) {
	roots := map[string]OID{"a": 1, "block-A": 9000, "": 3}
	rec := encodeRoots(roots)
	got, err := decodeRoots(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, roots) {
		t.Fatalf("roots = %v, want %v", got, roots)
	}
	if _, err := decodeRoots(rec[:2]); err == nil {
		t.Fatal("decoding truncated roots succeeded")
	}
}

// Property: arbitrary (int,string,bytes,bool,float) tuples round-trip.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(i int64, s string, b []byte, fl float64, ok bool) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN; normalize
		}
		values := []any{i, s, append([]byte(nil), b...), fl, ok}
		rec, err := appendObject(nil, OID(1), "P", values)
		if err != nil {
			return false
		}
		_, _, got, err := decodeObject(rec)
		if err != nil || len(got) != 5 {
			return false
		}
		return got[0] == i && got[1] == s && bytes.Equal(got[2].([]byte), b) &&
			got[3] == fl && got[4] == ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckValueCoercions(t *testing.T) {
	cases := []struct {
		typ  AttrType
		in   any
		want any
	}{
		{TInt, 5, int64(5)},
		{TInt, int32(5), int64(5)},
		{TInt, uint64(5), int64(5)},
		{TFloat, 5, float64(5)},
		{TFloat, float32(2), float64(2)},
		{TRef, nil, OID(0)},
		{TRef, uint64(3), OID(3)},
	}
	for _, c := range cases {
		got, err := checkValue(c.typ, c.in)
		if err != nil || got != c.want {
			t.Errorf("checkValue(%v, %v) = %v, %v; want %v", c.typ, c.in, got, err, c.want)
		}
	}
	if _, err := checkValue(TInt, "x"); err == nil {
		t.Error("checkValue(TInt, string) succeeded")
	}
	if _, err := checkValue(TString, 7); err == nil {
		t.Error("checkValue(TString, int) succeeded")
	}
	if _, err := checkValue(TTime, 7); err == nil {
		t.Error("checkValue(TTime, int) succeeded")
	}
}

func TestAttrTypeStringsAndZeros(t *testing.T) {
	for _, typ := range []AttrType{TInt, TFloat, TString, TBool, TRef, TTime, TBytes, TList} {
		if typ.String() == "" {
			t.Errorf("AttrType %d empty String", typ)
		}
		z := typ.zero()
		if typ != TBytes && typ != TList && z == nil {
			t.Errorf("AttrType %v zero = nil", typ)
		}
		if _, err := checkValue(typ, z); err != nil {
			t.Errorf("zero of %v not assignable to itself: %v", typ, err)
		}
	}
}
