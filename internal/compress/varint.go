// Package compress implements the ODH compression pipeline from §3 of the
// paper: delta/varint timestamp compression, swinging-door linear
// compression for smooth low-frequency tags, quantization for fluctuating
// high-frequency tags, and a lossless XOR (Gorilla-style) float codec. The
// tsstore layer picks a codec per tag column based on data variability
// ("data variability-aware compression strategy") and frames the result
// into ValueBlobs.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports undecodable compressed data.
var ErrCorrupt = errors.New("compress: corrupt data")

// Zigzag maps signed integers to unsigned so small magnitudes (of either
// sign) encode in few varint bytes.
func Zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendVarint appends the zigzag varint encoding of v.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, Zigzag(v))
}

// Varint decodes a value written by AppendVarint.
func Varint(b []byte) (int64, []byte, error) {
	u, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return Unzigzag(u), b[n:], nil
}

// AppendDeltas encodes vals as first value + zigzag-varint deltas. It is
// the paper's "timestamps stored as delta values to their previous values,
// which requires fewer bits".
func AppendDeltas(dst []byte, vals []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	dst = AppendVarint(dst, vals[0])
	prev := vals[0]
	for _, v := range vals[1:] {
		dst = AppendVarint(dst, v-prev)
		prev = v
	}
	return dst
}

// Deltas decodes a slice written by AppendDeltas and returns the rest of b.
func Deltas(b []byte) ([]int64, []byte, error) {
	n, b, err := deltasLen(b)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int64, n)
	if n == 0 {
		return out, b, nil
	}
	out[0], b, err = Varint(b)
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i < int(n); i++ {
		var d int64
		d, b, err = Varint(b)
		if err != nil {
			return nil, nil, err
		}
		out[i] = out[i-1] + d
	}
	return out, b, nil
}

// DeltaAt returns value i of a slice written by AppendDeltas — the sum of
// its first i+1 varints — with the slice's length and the rest of b,
// without materialising the other values: the varints behind value i are
// stepped over, each checked to end inside b as Deltas checks it. An i
// outside the slice is corrupt.
func DeltaAt(b []byte, i int) (int64, int, []byte, error) {
	n, b, err := deltasLen(b)
	if err != nil {
		return 0, 0, nil, err
	}
	if i < 0 || i >= n {
		return 0, 0, nil, ErrCorrupt
	}
	var v int64
	for j := 0; j < n; j++ {
		u, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, 0, nil, ErrCorrupt
		}
		if j <= i {
			v += Unzigzag(u)
		}
		b = b[k:]
	}
	return v, n, b, nil
}

// deltasLen reads the length of a slice written by AppendDeltas and returns
// it with the bytes of its values. Every value takes at least one byte: a
// length the bytes cannot hold is rejected before anything is allocated
// for it.
func deltasLen(b []byte) (int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, ErrCorrupt
	}
	b = b[k:]
	if n > uint64(len(b)) {
		return 0, nil, fmt.Errorf("%w: implausible count %d", ErrCorrupt, n)
	}
	return int(n), b, nil
}

// AppendDeltaOfDeltas encodes vals as first value, first delta, then
// second-order deltas; regular time series collapse to near-zero bytes per
// timestamp.
func AppendDeltaOfDeltas(dst []byte, vals []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	dst = AppendVarint(dst, vals[0])
	if len(vals) == 1 {
		return dst
	}
	prevDelta := vals[1] - vals[0]
	dst = AppendVarint(dst, prevDelta)
	prev := vals[1]
	for _, v := range vals[2:] {
		d := v - prev
		dst = AppendVarint(dst, d-prevDelta)
		prevDelta = d
		prev = v
	}
	return dst
}

// DeltaOfDeltas decodes a slice written by AppendDeltaOfDeltas.
func DeltaOfDeltas(b []byte) ([]int64, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, ErrCorrupt
	}
	b = b[k:]
	// Every value takes at least one byte: a count the bytes cannot hold is
	// rejected before anything is allocated for it.
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: implausible count %d", ErrCorrupt, n)
	}
	out := make([]int64, n)
	if n == 0 {
		return out, b, nil
	}
	var err error
	out[0], b, err = Varint(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 1 {
		return out, b, nil
	}
	delta, b, err := Varint(b)
	if err != nil {
		return nil, nil, err
	}
	out[1] = out[0] + delta
	for i := 2; i < int(n); i++ {
		var dd int64
		dd, b, err = Varint(b)
		if err != nil {
			return nil, nil, err
		}
		delta += dd
		out[i] = out[i-1] + delta
	}
	return out, b, nil
}
