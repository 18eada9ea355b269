// Package keyenc provides order-preserving binary encodings for composite
// B-tree keys. All encodings compare with bytes.Compare in the same order as
// the source values, so the B-tree layer can stay type-agnostic. The batch
// stores key their records by (source id, timestamp) and (group id,
// timestamp) tuples built with this package; relational indexes use the
// typed single-column encoders.
package keyenc

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShortKey is returned when decoding runs past the end of a key.
var ErrShortKey = errors.New("keyenc: key too short")

// AppendUint64 appends an order-preserving encoding of v.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// Uint64 decodes a value written by AppendUint64 and returns the rest.
func Uint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrShortKey
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// AppendInt64 appends an order-preserving encoding of v: the sign bit is
// flipped so negative values sort before positive ones.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

// Int64 decodes a value written by AppendInt64 and returns the rest.
func Int64(b []byte) (int64, []byte, error) {
	u, rest, err := Uint64(b)
	if err != nil {
		return 0, nil, err
	}
	return int64(u ^ (1 << 63)), rest, nil
}

// AppendFloat64 appends an order-preserving encoding of v. Positive floats
// have the sign bit set; negative floats have all bits flipped, which
// reverses their (descending) natural bit order. NaN sorts after +Inf.
func AppendFloat64(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// Float64 decodes a value written by AppendFloat64 and returns the rest.
func Float64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrShortKey
	}
	bits := binary.BigEndian.Uint64(b)
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits), b[8:], nil
}

// AppendString appends an order-preserving, self-delimiting encoding of s.
// Bytes 0x00 are escaped as 0x00 0xFF and the string is terminated with
// 0x00 0x00, so "a" < "aa" and embedded NULs stay ordered.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// String decodes a value written by AppendString and returns the rest.
func String(b []byte) (string, []byte, error) {
	var out []byte
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != 0x00 {
			out = append(out, c)
			continue
		}
		if i+1 >= len(b) {
			return "", nil, ErrShortKey
		}
		switch b[i+1] {
		case 0x00:
			return string(out), b[i+2:], nil
		case 0xFF:
			out = append(out, 0x00)
			i++
		default:
			return "", nil, errors.New("keyenc: corrupt string escape")
		}
	}
	return "", nil, ErrShortKey
}

// SourceTime builds the composite (source id, timestamp) key used by the
// RTS and IRTS batch stores and by relational (id, ts) indexes.
func SourceTime(source int64, ts int64) []byte {
	return AppendSourceTime(make([]byte, 0, 16), source, ts)
}

// AppendSourceTime appends the SourceTime key to dst.
func AppendSourceTime(dst []byte, source int64, ts int64) []byte {
	return AppendInt64(AppendInt64(dst, source), ts)
}

// DecodeSourceTime splits a key built by SourceTime.
func DecodeSourceTime(k []byte) (source, ts int64, err error) {
	source, rest, err := Int64(k)
	if err != nil {
		return 0, 0, err
	}
	ts, _, err = Int64(rest)
	return source, ts, err
}

// TimeSource builds the composite (timestamp, source id) key used by
// time-major indexes (the MG store and relational timestamp indexes).
func TimeSource(ts int64, source int64) []byte {
	k := make([]byte, 0, 16)
	k = AppendInt64(k, ts)
	k = AppendInt64(k, source)
	return k
}

// DecodeTimeSource splits a key built by TimeSource.
func DecodeTimeSource(k []byte) (ts, source int64, err error) {
	ts, rest, err := Int64(k)
	if err != nil {
		return 0, 0, err
	}
	source, _, err = Int64(rest)
	return ts, source, err
}

// PrefixInt64 returns the 8-byte prefix that all keys starting with v share,
// for building range-scan bounds.
func PrefixInt64(v int64) []byte {
	return AppendInt64(nil, v)
}

// PrefixSuccessor returns the smallest key strictly greater than every key
// having prefix p, or nil if p is all 0xFF (no successor).
func PrefixSuccessor(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
