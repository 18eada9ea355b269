package compress

import "encoding/binary"

// BitWriter packs integers of arbitrary bit width into a byte slice,
// most-significant bit first. The quantization codec uses it to store
// b-bit symbols.
type BitWriter struct {
	buf  []byte
	cur  uint64 // bits accumulated, left-aligned in the low `n` bits
	nCur uint   // number of valid bits in cur
}

// NewBitWriter returns a writer appending to buf (may be nil).
func NewBitWriter(buf []byte) *BitWriter { return &BitWriter{buf: buf} }

// WriteBits appends the low `width` bits of v. width must be 0..64.
func (w *BitWriter) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if width > 32 {
		// Split to keep the accumulator within 64 bits.
		w.WriteBits(v>>32, width-32)
		w.WriteBits(v&0xFFFFFFFF, 32)
		return
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	w.cur = w.cur<<width | v
	w.nCur += width
	for w.nCur >= 8 {
		w.nCur -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nCur))
	}
	// Keep only the unflushed low bits to avoid overflow on the next shift.
	if w.nCur > 0 {
		w.cur &= (1 << w.nCur) - 1
	} else {
		w.cur = 0
	}
}

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// Bytes flushes any partial byte (zero padded) and returns the buffer.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nCur)))
		w.cur, w.nCur = 0, 0
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
