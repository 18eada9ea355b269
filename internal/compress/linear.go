package compress

import (
	"encoding/binary"
	"math"
)

// Linear compression (the paper's reference [7], Hale & Sellars' historical
// data recording, widely known as swinging-door trending): successive
// values that fit on a straight line within maxDev are replaced by the
// line's two "spike" endpoints. Decompression reconstructs every original
// sample position by linear interpolation, guaranteeing
// |reconstructed - original| <= maxDev.
//
// With maxDev == 0 the algorithm is lossless: only exactly collinear runs
// collapse (common for constant tags such as status codes or stable meter
// readings).

// linearSegment is one retained spike point: the sample index (within the
// batch) and its exact value.
type linearSegment struct {
	idx int
	val float64
}

// CompressLinear encodes values (sampled at positions 0..n-1) with
// swinging-door trending under the given maximum deviation. The positions
// are batch-local sample indexes; the caller stores timestamps separately.
func CompressLinear(dst []byte, values []float64, maxDev float64) []byte {
	var buf [8]linearSegment // a constant column's two spikes, without an allocation
	segs := swingingDoor(buf[:0], values, maxDev)
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	dst = binary.AppendUvarint(dst, uint64(len(segs)))
	prevIdx := 0
	for i, s := range segs {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(s.idx))
		} else {
			dst = binary.AppendUvarint(dst, uint64(s.idx-prevIdx))
		}
		prevIdx = s.idx
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.val))
	}
	return dst
}

// DecompressLinear appends the first limit values of the slice written by
// CompressLinear to dst and returns the remaining bytes.
func DecompressLinear(dst []float64, b []byte, limit int) ([]float64, []byte, error) {
	full, k := binary.Uvarint(b)
	if k <= 0 || full > MaxColumnValues {
		return nil, nil, ErrCorrupt
	}
	b = b[k:]
	// A segment takes at least nine bytes; the value count is bounded by
	// the limit alone, since a constant run of any length is one segment.
	nseg, k := binary.Uvarint(b)
	if k <= 0 || nseg > full+1 || nseg*9 > uint64(len(b)-k) {
		return nil, nil, ErrCorrupt
	}
	b = b[k:]
	n := min(int(full), max(limit, 0))
	dst, out := grow(dst, n)
	// The spike points are read in turn, each interpolated from the one
	// before it, so a decode allocates nothing for them.
	var a linearSegment
	for s := range int(nseg) {
		d, k := binary.Uvarint(b)
		if k <= 0 || len(b) < k+8 {
			return nil, nil, ErrCorrupt
		}
		c := linearSegment{int(d), math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))}
		b = b[k+8:]
		if s == 0 {
			a = c
			continue
		}
		c.idx += a.idx
		if a.idx < 0 || c.idx >= int(full) || c.idx <= a.idx {
			return nil, nil, ErrCorrupt
		}
		span := float64(c.idx - a.idx)
		if a.idx < n {
			out[a.idx] = a.val
		}
		for i := a.idx + 1; i < c.idx && i < n; i++ {
			t := float64(i-a.idx) / span
			out[i] = a.val + t*(c.val-a.val)
		}
		if c.idx < n {
			out[c.idx] = c.val
		}
		a = c
	}
	if full == 0 {
		return dst, b, nil
	}
	switch nseg {
	case 0:
		return nil, nil, ErrCorrupt
	case 1: // a constant run
		for i := range out {
			out[i] = a.val
		}
	}
	return dst, b, nil
}

// swingingDoor appends the retained spike points for values under maxDev to
// segs.
// Segment endpoints are placed on a slope consistent with every door
// constraint collected since the anchor, which is what guarantees the
// maxDev bound for all interior samples (emitting the raw data value
// instead would break the bound). At maxDev == 0 the doors only stay open
// for exactly collinear runs, so reconstruction is exact up to
// floating-point rounding.
func swingingDoor(segs []linearSegment, values []float64, maxDev float64) []linearSegment {
	n := len(values)
	if n == 0 {
		return segs
	}
	segs = append(segs, linearSegment{0, values[0]})
	if n == 1 {
		return segs
	}
	anchor := 0
	anchorVal := values[0]
	// Door slopes measured from the (possibly approximated) anchor point.
	slopeHi := math.Inf(1)
	slopeLo := math.Inf(-1)
	for i := 1; i < n; i++ {
		dx := float64(i - anchor)
		hi := (values[i] + maxDev - anchorVal) / dx
		lo := (values[i] - maxDev - anchorVal) / dx
		newHi := math.Min(slopeHi, hi)
		newLo := math.Max(slopeLo, lo)
		if newLo <= newHi {
			slopeHi, slopeLo = newHi, newLo
			continue
		}
		// The door closed: end the segment at i-1 on a consistent slope;
		// that point anchors the next segment. The door cannot close on
		// the first point after an anchor (a single point's constraints
		// are always consistent), so i-1 > anchor here.
		s := midSlope(slopeLo, slopeHi)
		endVal := anchorVal + s*float64(i-1-anchor)
		segs = append(segs, linearSegment{i - 1, endVal})
		anchor, anchorVal = i-1, endVal
		dx = float64(i - anchor)
		slopeHi = (values[i] + maxDev - anchorVal) / dx
		slopeLo = (values[i] - maxDev - anchorVal) / dx
	}
	s := midSlope(slopeLo, slopeHi)
	segs = append(segs, linearSegment{n - 1, anchorVal + s*float64(n-1-anchor)})
	return segs
}

// midSlope picks a slope inside the open door, preferring the middle.
func midSlope(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	default:
		return lo + (hi-lo)/2
	}
}

// MaxLinearError returns the maximum absolute reconstruction error of
// swinging-door compression at maxDev over values, for verification and
// the EXPERIMENTS error-bound report.
func MaxLinearError(values []float64, maxDev float64) float64 {
	enc := CompressLinear(nil, values, maxDev)
	dec, _, err := DecompressLinear(nil, enc, MaxColumnValues)
	if err != nil || len(dec) != len(values) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range values {
		if e := math.Abs(dec[i] - values[i]); e > worst {
			worst = e
		}
	}
	return worst
}
