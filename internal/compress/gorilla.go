package compress

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Lossless XOR float compression (Gorilla-style). The paper requires that
// "both of the algorithms support lossless compression"; this codec is the
// lossless path the tsstore uses when a tag is configured with a zero error
// bound but its values are not linear enough for swinging-door to win.
//
// Each value is XORed with its predecessor. A zero XOR emits a single 0
// bit. Otherwise a 1 bit is followed by either a 0 bit (the meaningful bits
// fit the previous leading/trailing window) and the window's bits, or a 1
// bit and a new 5-bit leading-zero count, 6-bit bit length, and the bits.

// CompressXOR losslessly encodes values. Each value is one WriteBits call:
// its control bits and fields ride with the payload unless they would make
// it wider than a word.
func CompressXOR(dst []byte, values []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	if len(values) == 0 {
		return dst
	}
	w := BitWriter{buf: dst}
	prev := math.Float64bits(values[0])
	w.WriteBits(prev, 64)
	prevLead, prevTrail := uint(65), uint(0)
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.WriteBits(0, 1)
			continue
		}
		lead := uint(bits.LeadingZeros64(x))
		trail := uint(bits.TrailingZeros64(x))
		if lead > 31 {
			lead = 31
		}
		// 10: the meaningful bits fit the previous window. 11: a new
		// window, its 5-bit leading-zero count and 6-bit length (1..64
		// stored as 0..63).
		var head uint64
		var headWidth, width uint
		if prevLead <= lead && trail >= prevTrail && prevLead != 65 {
			head, headWidth = 0b10, 2
			width = 64 - prevLead - prevTrail
		} else {
			width = 64 - lead - trail
			head, headWidth = 0b11<<11|uint64(lead)<<6|uint64(width-1), 13
			prevLead, prevTrail = lead, trail
		}
		payload := x >> prevTrail
		if headWidth+width <= 64 {
			w.WriteBits(head<<width|payload, headWidth+width)
		} else {
			w.WriteBits(head, headWidth)
			w.WriteBits(payload, width)
		}
	}
	return w.Bytes()
}

// DecompressXOR appends the first limit values written by CompressXOR to
// dst (all of them when limit is MaxColumnValues). Like the quantization
// codec, it consumes the whole framed block.
func DecompressXOR(dst []float64, b []byte, limit int) ([]float64, error) {
	// The first value takes 64 bits, every later one at least one.
	n, b, err := columnCount(b, limit, 1)
	if err != nil {
		return nil, err
	}
	dst, out := grow(dst, n)
	if n == 0 {
		return dst, nil
	}
	r := NewBitReader(b)
	prev := r.ReadBits(64)
	if r.Err() != nil {
		return nil, ErrCorrupt
	}
	out[0] = math.Float64frombits(prev)
	var lead, width uint
	for i := 1; i < n; i++ {
		r.need(13) // both control bits and a new window's eleven
		if r.take(1) == 1 {
			if r.take(1) == 1 {
				lw := r.take(11) // 5-bit leading-zero count, 6-bit length
				lead, width = uint(lw>>6), uint(lw&63)+1
			}
			if width == 0 || lead+width > 64 {
				return nil, ErrCorrupt
			}
			prev ^= r.ReadBits(width) << (64 - lead - width)
		}
		if r.Err() != nil {
			return nil, ErrCorrupt
		}
		out[i] = math.Float64frombits(prev)
	}
	return dst, nil
}
