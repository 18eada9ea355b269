package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec identifies the per-column value encoding inside a ValueBlob.
type Codec uint8

// Column codecs. The leading byte of every encoded column names its codec,
// so mixed blobs decode without external metadata.
const (
	CodecRaw    Codec = 0 // 8 bytes per value, no transform
	CodecLinear Codec = 1 // swinging-door linear (paper ref [7])
	CodecQuant  Codec = 2 // uniform quantization (paper ref [8])
	CodecXOR    Codec = 3 // lossless XOR float compression
	// CodecDelta = 4 (maxeffort.go): bit-packed integral delta-of-delta,
	// written only by the cold-tier EncodeColumnMaxEffort path.
	// CodecSegments = 5 (segments.go): a column of more than SegmentValues
	// values, framed as a run of columns of the codecs above.
)

// String names the codec for logs and EXPERIMENTS reports.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecLinear:
		return "linear"
	case CodecQuant:
		return "quant"
	case CodecXOR:
		return "xor"
	case CodecDelta:
		return "delta"
	case CodecSegments:
		return "segments"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// Policy is the per-tag compression configuration. The zero value asks for
// lossless storage.
type Policy struct {
	// MaxDev is the tolerated absolute reconstruction error. Zero means
	// lossless.
	MaxDev float64
	// Disable turns compression off entirely (raw storage); used by the
	// compression on/off ablation.
	Disable bool
}

// Lossless reports whether the policy requires exact reconstruction.
func (p Policy) Lossless() bool { return p.MaxDev == 0 }

// EncodeColumn appends one encoded value column to dst using the
// variability-aware strategy from §3 of the paper: smooth series go to
// linear compression, fluctuating series go to quantization (lossy) or XOR
// (lossless). Values must be NaN-free; NULL handling lives in the blob
// framing's presence bitmap. The pick is made once for the whole column; a
// column of more than SegmentValues values is written in segments of it.
// With ColumnBound(len(values)) bytes free in dst it allocates nothing for
// a lossless or raw column.
func EncodeColumn(dst []byte, values []float64, pol Policy) []byte {
	return appendColumn(dst, values, pickCodec(values, pol).appendSegment)
}

// columnPick is EncodeColumn's pick for a whole column: the codec that
// writes each of its segments, with that codec's parameter.
type columnPick struct {
	codec  Codec
	maxDev float64 // CodecLinear
	bits   uint    // CodecQuant
}

func pickCodec(values []float64, pol Policy) columnPick {
	if pol.Disable {
		return columnPick{codec: CodecRaw}
	}
	if pol.Lossless() {
		// Constant runs collapse under linear with bitwise exactness; for
		// everything else XOR is the only codec that guarantees bit-exact
		// reconstruction (linear interpolation can round).
		if isConstant(values) {
			return columnPick{codec: CodecLinear}
		}
		return columnPick{codec: CodecXOR}
	}
	// Lossy: smoothness decides, mirroring "for smooth values ... linear
	// compression ... for non-linear high-frequency tag values ...
	// quantization". A segment's range lies inside the column's, so the
	// column's bit width bounds every segment's error by MaxDev.
	if isSmooth(values, pol.MaxDev) {
		return columnPick{codec: CodecLinear, maxDev: pol.MaxDev}
	}
	return columnPick{codec: CodecQuant, bits: quantBitsFor(values, pol.MaxDev)}
}

// appendSegment appends one segment of the column, codec byte included.
func (p columnPick) appendSegment(dst []byte, seg []float64) []byte {
	switch p.codec {
	case CodecRaw:
		return appendRaw(dst, seg)
	case CodecLinear:
		return CompressLinear(append(dst, byte(CodecLinear)), seg, p.maxDev)
	case CodecQuant:
		return CompressQuant(append(dst, byte(CodecQuant)), seg, p.bits)
	}
	return CompressXOR(append(dst, byte(CodecXOR)), seg)
}

// ColumnBound is the most bytes EncodeColumn or EncodeColumnMaxEffort
// appends for n values: under ten a value (XOR's worst is 77 bits, a linear
// spike nine bytes) and a segment's framing.
func ColumnBound(n int) int {
	nseg := (n + SegmentValues - 1) / SegmentValues
	return 8 + nseg*(16+binary.MaxVarintLen32) + 10*n
}

// MaxColumnValues bounds the value count any column may declare; as a
// decode limit it means "the whole column".
const MaxColumnValues = 1 << 24

// DecodeColumn decodes one column produced by EncodeColumn. b must contain
// exactly the column's bytes (the blob framing stores lengths).
func DecodeColumn(b []byte) ([]float64, error) {
	return AppendColumnValues(nil, b)
}

// AppendColumnValues appends every value of a column to dst: DecodeColumn
// into memory of the caller's.
func AppendColumnValues(dst []float64, b []byte) ([]float64, error) {
	if len(b) > 0 && Codec(b[0]) == CodecSegments {
		vals, _, err := decodeSegments(dst, b[1:], 0, MaxColumnValues)
		return vals, err
	}
	return decodeSegment(dst, b, MaxColumnValues)
}

// DecodeColumnN decodes the values [from, to) of a column (fewer when the
// column holds fewer) without paying for the values behind to: it returns
// values [start, start+len(vals)) for a start <= from — the values of from's
// segment in front of it come along. A column of codecs 0–4 is one segment,
// so start is 0 and vals is DecodeColumn(b)[:to]; a segmented column
// decodes only the segments spanning [from, to). An empty range — from
// past the column's end included — returns no values and start 0, whatever
// the codec: only the column's header or segment table is checked. Bytes
// behind the last value it returns are not inspected.
func DecodeColumnN(b []byte, from, to int) ([]float64, int, error) {
	if len(b) > 0 && Codec(b[0]) == CodecSegments {
		return decodeSegments(nil, b[1:], from, to)
	}
	if from >= to {
		to = 0
	}
	vals, err := decodeSegment(nil, b, to)
	return vals, 0, err
}

// decodeSegment appends the first limit values of one segment — a column
// of codecs 0–4, codec byte included — to dst.
func decodeSegment(dst []float64, b []byte, limit int) ([]float64, error) {
	if len(b) == 0 {
		return nil, ErrCorrupt
	}
	codec, payload := Codec(b[0]), b[1:]
	switch codec {
	case CodecRaw:
		return decodeRaw(dst, payload, limit)
	case CodecLinear:
		vals, _, err := DecompressLinear(dst, payload, limit)
		return vals, err
	case CodecQuant:
		return DecompressQuant(dst, payload, limit)
	case CodecXOR:
		return DecompressXOR(dst, payload, limit)
	case CodecDelta:
		return decodeIntDelta(dst, payload, limit)
	}
	return nil, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, b[0])
}

// columnCount reads a column's leading value count and returns how many
// values to decode — at most limit — with the bytes after the count. The
// count is untrusted: nothing is allocated for values that the bytes left,
// at minBits each, could not hold.
func columnCount(b []byte, limit int, minBits uint64) (int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > MaxColumnValues {
		return 0, nil, ErrCorrupt
	}
	b = b[k:]
	n = min(n, uint64(max(limit, 0)))
	if n*minBits > 8*uint64(len(b)) {
		return 0, nil, ErrCorrupt
	}
	return int(n), b, nil
}

// ColumnCodec peeks at the codec byte of an encoded column — of its first
// segment, when it is segmented.
func ColumnCodec(b []byte) Codec {
	if len(b) == 0 {
		return CodecRaw
	}
	if Codec(b[0]) == CodecSegments {
		if _, _, body, err := segmentTable(b[1:]); err == nil {
			return Codec(body[0])
		}
	}
	return Codec(b[0])
}

func appendRaw(dst []byte, values []float64) []byte {
	dst = append(dst, byte(CodecRaw))
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	for _, v := range values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeRaw(dst []float64, b []byte, limit int) ([]float64, error) {
	n, b, err := columnCount(b, limit, 64)
	if err != nil {
		return nil, err
	}
	dst, out := grow(dst, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return dst, nil
}

// grow extends dst by n values and returns it with the window of the new
// ones, for a decoder to fill.
func grow(dst []float64, n int) ([]float64, []float64) {
	if cap(dst)-len(dst) < n {
		dst = append(make([]float64, 0, len(dst)+n), dst...)
	}
	dst = dst[:len(dst)+n]
	return dst, dst[len(dst)-n:]
}

// isConstant reports whether all values are bitwise identical.
func isConstant(values []float64) bool {
	for i := 1; i < len(values); i++ {
		if math.Float64bits(values[i]) != math.Float64bits(values[0]) {
			return false
		}
	}
	return true
}

// isSmooth reports whether swinging-door would retain fewer than a quarter
// of the samples, i.e. the series is "smooth" in the paper's sense.
func isSmooth(values []float64, maxDev float64) bool {
	if len(values) < 4 {
		return true
	}
	var buf [8]linearSegment
	segs := swingingDoor(buf[:0], values, maxDev)
	return len(segs)*4 < len(values)
}

// quantBitsFor picks the smallest bit width whose quantization error bound
// satisfies maxDev for this block's range.
func quantBitsFor(values []float64, maxDev float64) uint {
	if len(values) == 0 {
		return 1
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for bits := uint(1); bits <= 32; bits++ {
		if QuantErrorBound(lo, hi, bits) <= maxDev {
			return bits
		}
	}
	return 32
}
