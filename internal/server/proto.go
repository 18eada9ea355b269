package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"odh"
)

// Protocol versions negotiated by HELLO. Version 1 is the original text
// protocol; version 2 adds the binary BATCH frame. A connection that never
// sends HELLO speaks version 1, so existing clients work verbatim.
const (
	ProtoVersionText   = 1
	ProtoVersionBinary = 2
	// ProtoVersionMax is the highest version this server speaks; HELLO
	// negotiates min(client proposal, ProtoVersionMax).
	ProtoVersionMax = ProtoVersionBinary
)

// MaxBatchFrameBytes caps one BATCH frame's payload. Larger frames are
// discarded and answered with ERR without desynchronizing the stream
// (the length prefix still tells the server how much to skip).
const MaxBatchFrameBytes = 8 << 20

// Batch frame layout (after the text line "BATCH <payloadLen>\n"):
//
//	[0:4)  crc32c (Castagnoli) of payload[4:], uint32 LE
//	[4:8)  npoints, uint32 LE
//	per point:
//	  [8]  source, int64 LE
//	  [8]  timestamp (ms), int64 LE
//	  [2]  nvals, uint16 LE
//	  [8×nvals] tag values, float64 LE (NaN encodes NULL; ±Inf rejected)
const (
	batchHeaderBytes = 8
	pointHeaderBytes = 8 + 8 + 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeBatchFrame serializes points into one BATCH payload (CRC header
// included). NaN values pass through as NULL; ±Inf is rejected because the
// store's NULL sentinel arithmetic assumes finite-or-NaN values.
func EncodeBatchFrame(points []odh.Point) ([]byte, error) {
	size := batchHeaderBytes
	for _, p := range points {
		if len(p.Values) > math.MaxUint16 {
			return nil, fmt.Errorf("batch frame: point has %d values (max %d)", len(p.Values), math.MaxUint16)
		}
		for _, v := range p.Values {
			if math.IsInf(v, 0) {
				return nil, fmt.Errorf("batch frame: non-finite value %v (use NaN for NULL)", v)
			}
		}
		size += pointHeaderBytes + 8*len(p.Values)
	}
	if size > MaxBatchFrameBytes {
		return nil, fmt.Errorf("batch frame: %d bytes exceeds the %d-byte frame cap", size, MaxBatchFrameBytes)
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(points)))
	off := batchHeaderBytes
	for _, p := range points {
		binary.LittleEndian.PutUint64(buf[off:], uint64(p.Source))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(p.TS))
		binary.LittleEndian.PutUint16(buf[off+16:], uint16(len(p.Values)))
		off += pointHeaderBytes
		for _, v := range p.Values {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(buf[0:4], crc32.Checksum(buf[4:], castagnoli))
	return buf, nil
}

// DecodeBatchFrame parses and validates one BATCH payload.
func DecodeBatchFrame(payload []byte) ([]odh.Point, error) {
	if len(payload) < batchHeaderBytes {
		return nil, fmt.Errorf("batch frame: %d-byte payload is shorter than the %d-byte header", len(payload), batchHeaderBytes)
	}
	want := binary.LittleEndian.Uint32(payload[0:4])
	if got := crc32.Checksum(payload[4:], castagnoli); got != want {
		return nil, fmt.Errorf("batch frame: crc mismatch (got %08x, want %08x)", got, want)
	}
	n := int(binary.LittleEndian.Uint32(payload[4:8]))
	// npoints is client-controlled and the CRC only proves the frame was
	// sent as-is, not that it is sane: bound the count by what the payload
	// could possibly hold before sizing any allocation by it.
	if maxPoints := (len(payload) - batchHeaderBytes) / pointHeaderBytes; n > maxPoints {
		return nil, fmt.Errorf("batch frame: %d points cannot fit in %d payload bytes", n, len(payload))
	}
	points := make([]odh.Point, 0, n)
	// Every point's Values is carved from one slab that dies with the
	// frame: whoever keeps a point copies it. It is sized by the bytes the
	// payload holds beyond the point headers, not by a declared count.
	slab := make([]float64, (len(payload)-batchHeaderBytes-n*pointHeaderBytes)/8)
	off := batchHeaderBytes
	for i := 0; i < n; i++ {
		if off+pointHeaderBytes > len(payload) {
			return nil, fmt.Errorf("batch frame: truncated at point %d of %d", i, n)
		}
		p := odh.Point{
			Source: int64(binary.LittleEndian.Uint64(payload[off:])),
			TS:     int64(binary.LittleEndian.Uint64(payload[off+8:])),
		}
		nvals := int(binary.LittleEndian.Uint16(payload[off+16:]))
		off += pointHeaderBytes
		if off+8*nvals > len(payload) {
			return nil, fmt.Errorf("batch frame: point %d declares %d values past the payload end", i, nvals)
		}
		if nvals > len(slab) {
			// The values sit where a later point's header must: the frame
			// is rejected below, by the same check as ever.
			slab = make([]float64, nvals)
		}
		p.Values, slab = slab[:nvals:nvals], slab[nvals:]
		for j := 0; j < nvals; j++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			if math.IsInf(v, 0) {
				return nil, fmt.Errorf("batch frame: non-finite value at point %d (use NaN for NULL)", i)
			}
			p.Values[j] = v
			off += 8
		}
		points = append(points, p)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("batch frame: %d trailing bytes after %d points", len(payload)-off, n)
	}
	return points, nil
}

// WriteBatchFrame writes the "BATCH <len>" line plus payload — the client
// side of the binary ingest path (the CLI and benchmarks use it; any client
// can reimplement it from the layout comment above).
func WriteBatchFrame(w io.Writer, points []odh.Point) error {
	payload, err := EncodeBatchFrame(points)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "BATCH %d\n", len(payload)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}
