// Package relational implements the row-store baseline engine the IoT-X
// benchmark compares ODH against (the paper's "RDB" and "MySQL"
// candidates). Tables are clustered B-trees keyed by rowid; secondary
// indexes are B-trees from encoded column values to rowids. The defining
// performance property — one B-tree maintenance operation per index per
// inserted record — is exactly the bottleneck the paper identifies in its
// relational baselines ("relational databases require a B-Tree update for
// each record insert").
package relational

import (
	"fmt"
	"math"
	"strconv"

	"odh/internal/keyenc"
)

// Kind is a SQL value type.
type Kind uint8

// Value kinds. Timestamps are int64 Unix milliseconds with their own kind
// so formatters can render them as datetimes.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindTime
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindTime:
		return "TIMESTAMP"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is one SQL value. The zero value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null is the NULL value.
var Null = Value{}

// Int builds an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float builds a float value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Str builds a string value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Time builds a timestamp value from Unix milliseconds.
func Time(ms int64) Value { return Value{Kind: KindTime, I: ms} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64 (NULL and strings are NaN).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindTime:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return math.NaN()
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindTime:
		return v.I
	case KindFloat:
		return int64(v.F)
	}
	return 0
}

// String renders the value for result display: what AppendText appends.
func (v Value) String() string {
	if v.Kind == KindString {
		return v.S
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the value's display rendering to dst without
// allocating beyond dst's growth: NULL, integers and timestamps in base
// 10, floats in the shortest 'g' form that round-trips, strings verbatim.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt, KindTime:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindString:
		return append(dst, v.S...)
	}
	return append(dst, '?')
}

// RowRenderer encodes a result's lines for the wire and the shells: cells
// are AppendText's bytes, a float rendered before copied from a memo, since
// a result's values repeat and formatting is a row's dearest step.
type RowRenderer struct {
	// memo is direct-mapped by bits; n == 0 marks an empty entry. 24 bytes
	// hold the longest text, such as -2.2250738585072014e-308.
	memo [64]struct {
		bits uint64
		n    uint8
		text [24]byte
	}
}

// AppendRow appends one line's cells, separated by sep.
func (r *RowRenderer) AppendRow(dst []byte, vals []Value, sep string) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, sep...)
		}
		if v.Kind != KindFloat {
			dst = v.AppendText(dst)
			continue
		}
		bits := math.Float64bits(v.F)
		e := &r.memo[(bits*0x9E3779B97F4A7C15)>>58]
		if e.n > 0 && e.bits == bits {
			dst = append(dst, e.text[:e.n]...)
			continue
		}
		start := len(dst)
		dst = v.AppendText(dst)
		e.bits, e.n = bits, uint8(copy(e.text[:], dst[start:]))
	}
	return dst
}

// Compare orders two values: NULL < numbers < strings; numeric kinds
// compare by numeric value (int/float/time interoperate, as SQL expects of
// a timestamp BETWEEN over integer literals).
func Compare(a, b Value) int {
	ra, rb := rank(a.Kind), rank(b.Kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both null
		return 0
	case 1: // numeric
		fa, fb := a.AsFloat(), b.AsFloat()
		// Compare ints exactly when both sides are integral kinds.
		if a.Kind != KindFloat && b.Kind != KindFloat {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		}
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	default: // strings
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	}
}

func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat, KindTime:
		return 1
	default:
		return 2
	}
}

// appendIndexKey appends an order-preserving encoding of v for index keys.
// A leading kind byte keeps NULLs first and types separated.
func appendIndexKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 0x00)
	case KindInt, KindTime:
		dst = append(dst, 0x01)
		return keyenc.AppendInt64(dst, v.I)
	case KindFloat:
		dst = append(dst, 0x01)
		return keyenc.AppendFloat64(dst, v.F)
	case KindString:
		dst = append(dst, 0x02)
		return keyenc.AppendString(dst, v.S)
	}
	return dst
}
