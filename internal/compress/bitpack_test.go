package compress

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refBitWriter is the bit-at-a-time reference for BitWriter: bit i of the
// stream is bit 7-i%8 of byte i/8, and the last byte is zero padded.
type refBitWriter struct {
	buf []byte
	n   int // bits written
}

func (r *refBitWriter) writeBits(v uint64, width uint) {
	for i := int(width) - 1; i >= 0; i-- {
		if r.n%8 == 0 {
			r.buf = append(r.buf, 0)
		}
		if v>>uint(i)&1 == 1 {
			r.buf[len(r.buf)-1] |= 0x80 >> (r.n % 8)
		}
		r.n++
	}
}

// FuzzBitWriter: a sequence of (value, width 0..64) writes — nine bytes
// each, behind a prefix the writer appends to — gives the reference
// writer's bytes, and BitReader reads every value back, masked to its
// width.
func FuzzBitWriter(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(3), []byte{64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(byte(1), []byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 9, 9, 9, 9, 9, 9, 9, 2, 0xAA, 0, 0, 0, 0, 0, 0, 0, 64, 0x80, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, prefix byte, data []byte) {
		head := bytes.Repeat([]byte{0x5A}, int(prefix%16))
		w := &BitWriter{buf: bytes.Clone(head)}
		ref := &refBitWriter{buf: bytes.Clone(head)}
		type item struct {
			v     uint64
			width uint
		}
		var items []item
		for ; len(data) >= 9; data = data[9:] {
			it := item{binary.BigEndian.Uint64(data[1:]), uint(data[0] % 65)}
			items = append(items, it)
			w.WriteBits(it.v, it.width)
			ref.writeBits(it.v, it.width)
		}
		got := w.Bytes()
		if !bytes.Equal(got, ref.buf) {
			t.Fatalf("%d writes: got %x, want %x", len(items), got, ref.buf)
		}
		r := NewBitReader(got[len(head):])
		for i, it := range items {
			want := it.v
			if it.width < 64 {
				want &= 1<<it.width - 1
			}
			if v := r.ReadBits(it.width); v != want {
				t.Fatalf("item %d (width %d): read %x, want %x", i, it.width, v, want)
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("reading back %d items: %v", len(items), err)
		}
	})
}
