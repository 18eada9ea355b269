package compress

import (
	"encoding/binary"
	"math"
)

// Maximum-effort column encoding for the cold storage tier. Hot-path
// encodes pick one codec from cheap heuristics; cold compaction runs once
// per blob lifetime, so it can afford to try every lossless candidate,
// verify each by decoding, and keep the smallest.

// CodecDelta is the bit-packed integral delta-of-delta codec (value 4 in
// the column codec byte). It applies only to columns whose values are all
// integral float64s: the sequence is converted to int64, delta-of-delta
// transformed, and packed with Gorilla-timestamp-style variable-width
// buckets. Counters, ramps, and sawtooths — the dominant shapes in
// operational telemetry — collapse to about one bit per value.
const CodecDelta Codec = 4

// appendIntDelta encodes ints as CodecDelta payload (codec byte included).
func appendIntDelta(dst []byte, ints []int64) []byte {
	dst = append(dst, byte(CodecDelta))
	dst = binary.AppendUvarint(dst, uint64(len(ints)))
	if len(ints) == 0 {
		return dst
	}
	dst = AppendVarint(dst, ints[0])
	if len(ints) == 1 {
		return dst
	}
	prevDelta := ints[1] - ints[0]
	dst = AppendVarint(dst, prevDelta)
	w := BitWriter{buf: dst}
	prev := ints[1]
	for _, v := range ints[2:] {
		d := v - prev
		// A control prefix, then the zigzagged delta-of-delta in the
		// smallest bucket that holds it; 0 repeats the delta.
		switch dod := Zigzag(d - prevDelta); {
		case dod == 0:
			w.WriteBits(0, 1)
		case dod < 1<<7:
			w.WriteBits(0b10<<7|dod, 2+7)
		case dod < 1<<10:
			w.WriteBits(0b110<<10|dod, 3+10)
		case dod < 1<<16:
			w.WriteBits(0b1110<<16|dod, 4+16)
		case dod < 1<<32:
			w.WriteBits(0b11110<<32|dod, 5+32)
		default:
			w.WriteBits(0b11111, 5)
			w.WriteBits(dod, 64)
		}
		prevDelta = d
		prev = v
	}
	return w.Bytes()
}

// decodeIntDelta appends the first limit values of a CodecDelta payload
// (codec byte stripped) to dst as float64s.
func decodeIntDelta(dst []float64, b []byte, limit int) ([]float64, error) {
	// Two varints of at least a byte each, then at least a bit per value.
	n, b, err := columnCount(b, limit, 1)
	if err != nil {
		return nil, err
	}
	dst, out := grow(dst, n)
	if n == 0 {
		return dst, nil
	}
	v0, b, err := Varint(b)
	if err != nil {
		return nil, err
	}
	out[0] = float64(v0)
	if n == 1 {
		return dst, nil
	}
	delta, b, err := Varint(b)
	if err != nil {
		return nil, err
	}
	prev := v0 + delta
	out[1] = float64(prev)
	r := NewBitReader(b)
	for i := 2; i < n; i++ {
		r.need(5) // the control prefix is at most five bits; a leading 0 repeats the delta
		if r.take(1) == 1 {
			width := uint(64)
			for _, w := range [...]uint{7, 10, 16, 32} {
				if r.take(1) == 0 {
					width = w
					break
				}
			}
			delta += Unzigzag(r.ReadBits(width))
		}
		if r.Err() != nil {
			return nil, ErrCorrupt
		}
		prev += delta
		out[i] = float64(prev)
	}
	return dst, nil
}

// integralColumn converts values to int64 when every value is an integer
// that round-trips exactly through the conversion (rejects NaN, ±Inf,
// fractions, -0, and magnitudes beyond the float64 integer range).
func integralColumn(values []float64) ([]int64, bool) {
	const maxExact = 1 << 53
	ints := make([]int64, len(values))
	for i, v := range values {
		if v != math.Trunc(v) || v < -maxExact || v > maxExact {
			return nil, false
		}
		n := int64(v)
		if math.Float64bits(float64(n)) != math.Float64bits(v) {
			return nil, false
		}
		ints[i] = n
	}
	return ints, true
}

// EncodeColumnMaxEffort appends the smallest encoding of values that
// reconstructs bit-exactly. It tries every lossless candidate — swinging
// door at zero deviation (collapses exactly-collinear runs), bit-packed
// integral delta-of-delta, XOR, raw — and verifies each by decoding and
// comparing bit patterns before it may win, so codec bugs or rounding in
// a candidate can cost size but never correctness. The cold compaction
// tier uses this; the ingest path keeps the cheap single-codec picks. A
// column of more than SegmentValues values picks per segment.
func EncodeColumnMaxEffort(dst []byte, values []float64) []byte {
	return appendColumn(dst, values, appendMaxEffort)
}

// appendMaxEffort appends EncodeColumnMaxEffort's pick for one segment.
func appendMaxEffort(dst []byte, values []float64) []byte {
	best := appendRaw(nil, values)
	consider := func(cand []byte) {
		if len(cand) >= len(best) {
			return
		}
		dec, err := DecodeColumn(cand)
		if err != nil || len(dec) != len(values) {
			return
		}
		for i := range dec {
			if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
				return
			}
		}
		best = cand
	}
	consider(CompressLinear([]byte{byte(CodecLinear)}, values, 0))
	if ints, ok := integralColumn(values); ok {
		consider(appendIntDelta(nil, ints))
	}
	consider(CompressXOR([]byte{byte(CodecXOR)}, values))
	return append(dst, best...)
}
