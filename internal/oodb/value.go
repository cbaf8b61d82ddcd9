// Package oodb implements the object-oriented database core of the
// Open OODB substrate: the object model (classes, typed attributes,
// registered methods), the data dictionary (class registry and named
// roots), the transient and persistent address spaces with a binary
// translation layer, and the persistence policy manager that flushes
// dirty objects at top-level commit.
//
// Method invocation and attribute mutation are funnelled through the
// database so that sentries can trap them — the integration point the
// paper could not obtain from closed commercial systems (§4).
package oodb

import (
	"fmt"
	"time"
)

// OID identifies an object for its whole life, transient or
// persistent. OID 0 is never assigned.
type OID uint64

// String implements fmt.Stringer.
func (o OID) String() string { return fmt.Sprintf("oid:%d", uint64(o)) }

// AttrType is the declared type of an attribute.
type AttrType int

// Attribute types.
const (
	TInt AttrType = iota + 1
	TFloat
	TString
	TBool
	TRef
	TTime
	TBytes
	TList
)

// String implements fmt.Stringer.
func (t AttrType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBool:
		return "bool"
	case TRef:
		return "ref"
	case TTime:
		return "time"
	case TBytes:
		return "bytes"
	case TList:
		return "list"
	}
	return fmt.Sprintf("AttrType(%d)", int(t))
}

// zero returns the zero value for the attribute type.
func (t AttrType) zero() any {
	switch t {
	case TInt:
		return int64(0)
	case TFloat:
		return float64(0)
	case TString:
		return ""
	case TBool:
		return false
	case TRef:
		return OID(0)
	case TTime:
		return time.Time{}
	case TBytes:
		return []byte(nil)
	case TList:
		return []any(nil)
	}
	return nil
}

// checkValue verifies (and mildly coerces) v against the attribute
// type, returning the canonical representation. A value that already
// has it is returned as it came: boxing it again would allocate.
func checkValue(t AttrType, v any) (any, error) {
	switch t {
	case TInt:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case uint64:
			return int64(x), nil
		}
	case TFloat:
		switch x := v.(type) {
		case float64:
			return v, nil
		case float32:
			return float64(x), nil
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		}
	case TString:
		if _, ok := v.(string); ok {
			return v, nil
		}
	case TBool:
		if _, ok := v.(bool); ok {
			return v, nil
		}
	case TRef:
		switch x := v.(type) {
		case OID:
			return v, nil
		case *Object:
			if x == nil {
				return OID(0), nil
			}
			return x.OID(), nil
		case nil:
			return OID(0), nil
		case uint64:
			return OID(x), nil
		}
	case TTime:
		if _, ok := v.(time.Time); ok {
			return v, nil
		}
	case TBytes:
		if x, ok := v.([]byte); ok {
			return append([]byte(nil), x...), nil
		}
	case TList:
		if _, ok := v.([]any); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("oodb: value %v (%T) not assignable to %v attribute", v, v, t)
}
