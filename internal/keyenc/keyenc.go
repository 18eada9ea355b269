// Package keyenc provides order-preserving binary encodings for composite
// B-tree keys. All encodings compare with bytes.Compare in the same order as
// the source values, so the B-tree layer can stay type-agnostic. The batch
// stores key their records by (source id, timestamp) and (group id,
// timestamp) tuples built with this package (SourceTime); relational tables
// key rows by an int64 rowid, and their indexes key a value by a kind byte
// and its int64 or string encoding — a double by the int64 that orders it
// (AppendFloat64).
package keyenc

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShortKey is returned when decoding runs past the end of a key.
var ErrShortKey = errors.New("keyenc: key too short")

// AppendInt64 appends an order-preserving encoding of v: the sign bit is
// flipped so negative values sort before positive ones.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

// Int64 decodes a value written by AppendInt64 and returns the rest.
func Int64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrShortKey
	}
	return int64(binary.BigEndian.Uint64(b) ^ (1 << 63)), b[8:], nil
}

// AppendFloat64 appends the index key of a double: the AppendInt64 encoding
// of its floor, so an integral double keys as the equal int does and others
// land between their neighbours; a range scan re-checks its bounds. Doubles
// outside the int64 range clamp to its ends: 2^63 and above, +Inf included,
// key at MaxInt64; below -2^63, -Inf and NaN at MinInt64. Keys stay
// monotone, and none depends on the platform's float-to-int conversion. The
// key keeps only the floor, so there is no decoder.
func AppendFloat64(dst []byte, v float64) []byte {
	var i int64
	switch {
	case v >= 1<<63:
		i = math.MaxInt64
	case v >= math.MinInt64:
		i = int64(math.Floor(v))
	default: // below -2^63, -Inf and NaN
		i = math.MinInt64
	}
	return AppendInt64(dst, i)
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
// RTS, IRTS and MG batch stores (an MG record's id is its group's).
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
