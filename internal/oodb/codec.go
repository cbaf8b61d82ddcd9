package oodb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// The translation layer converts between in-memory objects and the
// uninterpreted records the storage manager holds — the Open OODB
// "translation" support module (§5, Figure 1).
//
// Record layout (little endian):
//
//	u8  recordTag (object | roots)
//	object: u64 oid | str class | u16 nvalues | nvalues × value
//	roots:  u16 n | n × (str name | u64 oid)
//	value:  u8 valueTag | payload
//	str:    u16 len | bytes
const (
	recObject byte = 0
	recRoots  byte = 1
)

const (
	vNil byte = iota
	vInt
	vFloat
	vString
	vBool
	vRef
	vTime
	vBytes
	vList
)

var errCorruptRecord = errors.New("oodb: corrupt record")

// appendObject translates an object's state into a storage record
// appended to buf.
func appendObject(buf []byte, oid OID, class string, values []any) ([]byte, error) {
	buf = append(buf, recObject)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(oid))
	buf = appendString(buf, class)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(values)))
	var err error
	for _, v := range values {
		buf, err = appendValue(buf, v)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeObjectHead reads an object record's OID and class name without
// decoding its values. class and values (the encoded value section)
// alias rec.
func decodeObjectHead(rec []byte) (oid OID, class, values []byte, err error) {
	if len(rec) < 1+8+2 || rec[0] != recObject {
		return 0, nil, nil, errCorruptRecord
	}
	oid = OID(binary.LittleEndian.Uint64(rec[1:]))
	n := int(binary.LittleEndian.Uint16(rec[9:]))
	p := rec[11:]
	if len(p) < n {
		return 0, nil, nil, errCorruptRecord
	}
	return oid, p[:n], p[n:], nil
}

// decodeObject translates a storage record back into (oid, class,
// values). The class's declared attribute count governs slot layout;
// missing trailing slots (schema grew) are zero-filled by the caller.
func decodeObject(rec []byte) (OID, string, []any, error) {
	oid, class, p, err := decodeObjectHead(rec)
	if err != nil {
		return 0, "", nil, err
	}
	if len(p) < 2 {
		return 0, "", nil, errCorruptRecord
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	values := make([]any, n)
	for i := 0; i < n; i++ {
		values[i], p, err = readValue(p)
		if err != nil {
			return 0, "", nil, err
		}
	}
	return oid, string(class), values, nil
}

// encodeRoots translates the named-roots directory.
func encodeRoots(roots map[string]OID) []byte {
	buf := make([]byte, 0, 16+len(roots)*16)
	buf = append(buf, recRoots)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(roots)))
	for name, oid := range roots {
		buf = appendString(buf, name)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(oid))
	}
	return buf
}

// decodeRoots translates a roots record.
func decodeRoots(rec []byte) (map[string]OID, error) {
	if len(rec) < 3 || rec[0] != recRoots {
		return nil, errCorruptRecord
	}
	p := rec[1:]
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	out := make(map[string]OID, n)
	for i := 0; i < n; i++ {
		var name string
		var err error
		name, p, err = readString(p)
		if err != nil {
			return nil, err
		}
		if len(p) < 8 {
			return nil, errCorruptRecord
		}
		out[name] = OID(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return out, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func readString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, errCorruptRecord
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return "", nil, errCorruptRecord
	}
	return string(p[:n]), p[n:], nil
}

func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, vNil), nil
	case int64:
		buf = append(buf, vInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(x)), nil
	case float64:
		buf = append(buf, vFloat)
		return binary.LittleEndian.AppendUint64(buf, uint64(floatBits(x))), nil
	case string:
		buf = append(buf, vString)
		return appendString(buf, x), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(buf, vBool, b), nil
	case OID:
		buf = append(buf, vRef)
		return binary.LittleEndian.AppendUint64(buf, uint64(x)), nil
	case time.Time:
		buf = append(buf, vTime)
		return binary.LittleEndian.AppendUint64(buf, uint64(x.UnixNano())), nil
	case []byte:
		buf = append(buf, vBytes)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		return append(buf, x...), nil
	case []any:
		buf = append(buf, vList)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(x)))
		var err error
		for _, e := range x {
			buf, err = appendValue(buf, e)
			if err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	return nil, fmt.Errorf("oodb: cannot encode value of type %T", v)
}

func readValue(p []byte) (any, []byte, error) {
	if len(p) < 1 {
		return nil, nil, errCorruptRecord
	}
	tag := p[0]
	p = p[1:]
	switch tag {
	case vNil:
		return nil, p, nil
	case vInt:
		if len(p) < 8 {
			return nil, nil, errCorruptRecord
		}
		return int64(binary.LittleEndian.Uint64(p)), p[8:], nil
	case vFloat:
		if len(p) < 8 {
			return nil, nil, errCorruptRecord
		}
		return bitsFloat(binary.LittleEndian.Uint64(p)), p[8:], nil
	case vString:
		s, rest, err := readString(p)
		return s, rest, err
	case vBool:
		if len(p) < 1 {
			return nil, nil, errCorruptRecord
		}
		return p[0] == 1, p[1:], nil
	case vRef:
		if len(p) < 8 {
			return nil, nil, errCorruptRecord
		}
		return OID(binary.LittleEndian.Uint64(p)), p[8:], nil
	case vTime:
		if len(p) < 8 {
			return nil, nil, errCorruptRecord
		}
		return time.Unix(0, int64(binary.LittleEndian.Uint64(p))).UTC(), p[8:], nil
	case vBytes:
		if len(p) < 4 {
			return nil, nil, errCorruptRecord
		}
		n := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < n {
			return nil, nil, errCorruptRecord
		}
		return append([]byte(nil), p[:n]...), p[n:], nil
	case vList:
		if len(p) < 2 {
			return nil, nil, errCorruptRecord
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		out := make([]any, n)
		var err error
		for i := 0; i < n; i++ {
			out[i], p, err = readValue(p)
			if err != nil {
				return nil, nil, err
			}
		}
		return out, p, nil
	}
	return nil, nil, fmt.Errorf("%w: unknown value tag %d", errCorruptRecord, tag)
}
