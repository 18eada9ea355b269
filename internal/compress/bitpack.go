package compress

import "encoding/binary"

// BitWriter packs integers of arbitrary bit width into a byte slice,
// most-significant bit first. Bits gather in a 64-bit accumulator that is
// appended a whole word at a time; Bytes appends what is left of it, zero
// padded to a byte. The column codecs write their streams through it.
type BitWriter struct {
	buf []byte
	acc uint64 // pending bits, left-aligned
	n   uint   // number of pending bits, 0..63
}

// WriteBits appends the low `width` bits of v. width must be 0..64.
func (w *BitWriter) WriteBits(v uint64, width uint) {
	if width < 64 {
		v &= 1<<width - 1
	}
	free := 64 - w.n
	if width < free {
		w.acc |= v << (free - width)
		w.n += width
		return
	}
	// The word fills: append it, and keep the bits of v that did not fit
	// (a shift by 64 leaves none).
	over := width - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>over)
	w.acc, w.n = v<<(64-over), over
}

// Bytes appends the pending bits, zero padded to a byte, and returns the
// buffer.
func (w *BitWriter) Bytes() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
	}
	return w.buf
}

// BitReader reads back bit sequences written by BitWriter. Reads never
// fail one by one: past the end of the buffer they return zero bits and
// Err reports ErrCorrupt, so a decode loop checks once per value instead of
// once per field.
type BitReader struct {
	buf  []byte
	pos  int    // next byte to load into cur; runs past len(buf) over zero padding
	cur  uint64 // unread bits, left-aligned
	nCur uint   // number of valid bits in cur
}

// NewBitReader reads from buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// refill tops cur up to at least 56 valid bits, a word at a time while
// eight bytes remain. Bits loaded beyond the last whole byte are loaded
// again, identically, by the next refill; past the end cur fills with zeros.
// Kept out of line so that need stays small enough to inline into the decode
// loops.
//
//go:noinline
func (r *BitReader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.cur |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.nCur
		r.pos += int(63-r.nCur) >> 3
		r.nCur |= 56
		return
	}
	for ; r.nCur <= 56; r.nCur += 8 {
		if r.pos < len(r.buf) {
			r.cur |= uint64(r.buf[r.pos]) << (56 - r.nCur)
		}
		r.pos++
	}
}

// need makes at least width unread bits (width <= 56) available to take.
func (r *BitReader) need(width uint) {
	if r.nCur < width {
		r.refill()
	}
}

// take returns the next width bits, which a preceding need must cover: a
// decode loop asks once for a value's control bits and takes them one by one.
func (r *BitReader) take(width uint) uint64 {
	v := r.cur >> (64 - width)
	r.cur <<= width
	r.nCur -= width
	return v
}

// ReadBits returns the next `width` bits, width 0..64.
func (r *BitReader) ReadBits(width uint) uint64 {
	var hi uint64
	if width > 56 {
		r.need(width - 32)
		hi = r.take(width-32) << 32
		width = 32
	}
	r.need(width)
	return hi | r.take(width)
}

// Err reports ErrCorrupt once a read has run past the end of the buffer.
func (r *BitReader) Err() error {
	if 8*r.pos-int(r.nCur) > 8*len(r.buf) {
		return ErrCorrupt
	}
	return nil
}
