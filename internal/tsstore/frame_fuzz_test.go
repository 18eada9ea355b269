package tsstore_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"unsafe"

	"odh/internal/model"
	"odh/internal/server"
	"odh/internal/tsstore"
)

// FuzzWALFrameDecode asserts the frame codec, which reads both the
// recovery log and a client's BATCH payload, takes any bytes — a log's
// checksum proves a record was written, not by whom, and a wire CRC that
// it was sent as is — without panicking, refusing typed, and without
// sizing anything by a count the payload does not back: the points decoded
// and the values they hold are bounded by the bytes there, and what they
// hold decoded is no more than the size admission was asked for. What it
// accepts survives a round trip through the encoder, and the same bytes
// behind a CRC decode on the wire to the same points unless a value is
// ±Inf, which the wire refuses.
func FuzzWALFrameDecode(f *testing.F) {
	for mode := 0; mode < 3; mode++ {
		for _, rec := range tsstore.EncodeFrames(tsstore.RandomFrame(rand.New(rand.NewSource(int64(mode))), 20, mode), 256) {
			f.Add(rec)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 4, 0, 2, 2, 1, 0x80, 0x80, 0x40}) // one point, 2^20 values declared, none there
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, b []byte) {
		var charge int64
		fr, err := tsstore.DecodeFrame(b, func(decoded int64) error { charge = decoded; return nil })
		if err != nil {
			if !errors.Is(err, tsstore.ErrCorruptFrame) {
				t.Fatalf("refused with %v, want ErrCorruptFrame", err)
			}
			return
		}
		pts := fr.Points()
		values := 0
		for _, p := range pts {
			values += len(p.Values)
		}
		if len(pts) > len(b) || values > 8*len(b) {
			t.Fatalf("%d points holding %d values accepted from a %d-byte frame", len(pts), values, len(b))
		}
		decoded := int64(len(pts))*int64(unsafe.Sizeof(model.Point{})) + 8*int64(values)
		if decoded > charge {
			t.Fatalf("a frame decoding to %d bytes was admitted at %d", decoded, charge)
		}
		again, finite := tsstore.AppendFrame(nil, pts)
		if re, err := tsstore.DecodeFrame(again, nil); err != nil || !tsstore.SamePoints(re.Points(), pts) {
			t.Fatalf("a decoded frame of %d points does not survive re-encoding (%v)", len(pts), err)
		}
		if finite != fr.Finite() {
			t.Fatalf("the encoder finds the frame finite: %v, the decoder: %v", finite, fr.Finite())
		}
		if len(b)+4 > server.MaxBatchFrameBytes {
			return
		}
		payload := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(b, castagnoli))
		wire, err := server.DecodeBatchFrame(append(payload, b...))
		if finite && (err != nil || !tsstore.SamePoints(wire, pts)) {
			t.Fatalf("the wire decodes a finite frame of %d points differently (%v)", len(pts), err)
		}
		if !finite && err == nil {
			t.Fatal("the wire accepted a frame holding ±Inf")
		}
	})
}
