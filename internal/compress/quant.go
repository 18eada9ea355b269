package compress

import (
	"encoding/binary"
	"math"
)

// Quantization (the paper's reference [8]): a many-to-few mapping of the
// value range onto 2^bits levels, so each sample needs only `bits` bits
// instead of 64. The paper cites a 4-to-16-fold ratio depending on the
// bits per point; the error bound is half a quantization step. The encoder
// stores min/max of the block so the decoder can reconstruct level centers.

// CompressQuant encodes values with `bits`-bit uniform quantization
// (1 <= bits <= 32). The maximum reconstruction error is
// (max-min) / 2^bits / 2 for the block.
func CompressQuant(dst []byte, values []float64, bits uint) []byte {
	if bits < 1 {
		bits = 1
	}
	if bits > 32 {
		bits = 32
	}
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	dst = append(dst, byte(bits))
	if len(values) == 0 {
		return dst
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
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(lo))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(hi))
	levels := uint64(1) << bits
	w := BitWriter{buf: dst}
	if hi == lo {
		// Degenerate range: all symbols are zero; BitWriter still emits
		// them so the layout stays uniform.
		for range values {
			w.WriteBits(0, bits)
		}
		return w.Bytes()
	}
	step := (hi - lo) / float64(levels)
	for _, v := range values {
		sym := uint64((v - lo) / step)
		if sym >= levels {
			sym = levels - 1
		}
		w.WriteBits(sym, bits)
	}
	return w.Bytes()
}

// DecompressQuant appends the first limit values of a block written by
// CompressQuant to dst. Each value is the center of its quantization level.
// Because the bit stream is zero-padded to a byte boundary, DecompressQuant
// consumes the entire remaining slice belonging to the block; callers must
// frame blocks externally (the ValueBlob framing stores per-column lengths).
func DecompressQuant(dst []float64, b []byte, limit int) ([]float64, error) {
	n, b, err := columnCount(b, limit, 0)
	if err != nil || len(b) < 1 {
		return nil, ErrCorrupt
	}
	bits := uint(b[0])
	b = b[1:]
	if n == 0 {
		return dst, nil
	}
	// The encoder writes 1..32 bits per symbol, after the block's range.
	if bits < 1 || bits > 32 || len(b) < 16 || uint64(n)*uint64(bits) > 8*uint64(len(b)-16) {
		return nil, ErrCorrupt
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(b))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	b = b[16:]
	dst, out := grow(dst, n)
	if hi == lo {
		for i := range out {
			out[i] = lo
		}
		return dst, nil
	}
	levels := uint64(1) << bits
	step := (hi - lo) / float64(levels)
	r := NewBitReader(b)
	for i := range out {
		out[i] = lo + (float64(r.ReadBits(bits))+0.5)*step
	}
	return dst, nil
}

// QuantErrorBound returns the worst-case reconstruction error for a block
// with the given range and bit width.
func QuantErrorBound(lo, hi float64, bits uint) float64 {
	if bits < 1 {
		bits = 1
	}
	if bits > 32 {
		bits = 32
	}
	return (hi - lo) / float64(uint64(1)<<bits) / 2
}
