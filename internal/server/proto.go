package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"odh"
	"odh/internal/tsstore"
	"odh/internal/walog"
)

// Protocol versions negotiated by HELLO. Version 1 is the original text
// protocol; version 3 adds the binary BATCH frame. A connection that never
// sends HELLO speaks version 1, so existing clients work verbatim; one
// that negotiates 2 speaks text only, its BATCH refused.
const (
	ProtoVersionText   = 1
	ProtoVersionBinary = 3
	// ProtoVersionMax is the highest version this server speaks; HELLO
	// negotiates min(client proposal, ProtoVersionMax).
	ProtoVersionMax = ProtoVersionBinary
)

// MaxBatchFrameBytes caps one BATCH frame's payload. Larger frames are
// discarded and answered with ERR without desynchronizing the stream
// (the length prefix still tells the server how much to skip). A frame is
// logged as one recovery-log record, so it must fit one (checked below).
const MaxBatchFrameBytes = 8 << 20
const _ = uint(walog.MaxRecord - MaxBatchFrameBytes)

// A BATCH payload (after the line "BATCH <payloadLen>\n") is the crc32c
// (Castagnoli, uint32 LE) of the rest, then one frame in the recovery
// log's layout (tsstore.AppendFrame), which the log keeps as received.
// NULL is a cleared presence bit; ±Inf is refused.
const crcBytes = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errNonFinite = errors.New("batch frame: non-finite value (use NaN for NULL)")

// EncodeBatchFrame serializes points into one BATCH payload (CRC header
// included). NaN values pass through as NULL; ±Inf is rejected because the
// store's NULL sentinel arithmetic assumes finite-or-NaN values.
func EncodeBatchFrame(points []odh.Point) ([]byte, error) {
	buf, finite := tsstore.AppendFrame(make([]byte, crcBytes), points)
	if !finite {
		return nil, errNonFinite
	}
	if len(buf) > MaxBatchFrameBytes {
		return nil, fmt.Errorf("batch frame: %d bytes exceeds the %d-byte frame cap", len(buf), MaxBatchFrameBytes)
	}
	binary.LittleEndian.PutUint32(buf, crc32.Checksum(buf[crcBytes:], castagnoli))
	return buf, nil
}

// DecodeBatchFrame parses and validates one BATCH payload into points the
// caller owns.
func DecodeBatchFrame(payload []byte) ([]odh.Point, error) {
	f, err := decodeBatch(payload, nil)
	return f.Points(), err
}

// decodeBatch checks a BATCH payload's length and CRC and decodes its frame
// (admit as in tsstore.DecodeFrame), refusing ±Inf.
func decodeBatch(payload []byte, admit func(decoded int64) error) (odh.Frame, error) {
	if len(payload) < crcBytes || len(payload) > MaxBatchFrameBytes {
		return odh.Frame{}, fmt.Errorf("batch frame: a %d-byte payload: %w", len(payload), tsstore.ErrCorruptFrame)
	}
	if got, want := crc32.Checksum(payload[crcBytes:], castagnoli), binary.LittleEndian.Uint32(payload); got != want {
		return odh.Frame{}, fmt.Errorf("batch frame: crc mismatch (got %08x, want %08x): %w", got, want, tsstore.ErrCorruptFrame)
	}
	f, err := tsstore.DecodeFrame(payload[crcBytes:], admit)
	if err == nil && !f.Finite() {
		return odh.Frame{}, errNonFinite
	}
	return f, err
}

// WriteBatchFrame writes the "BATCH <len>" line plus payload — the client
// side of the binary ingest path (any client can reimplement it from the
// layout comment above).
func WriteBatchFrame(w io.Writer, points []odh.Point) error {
	payload, err := EncodeBatchFrame(points)
	if err == nil {
		_, err = fmt.Fprintf(w, "BATCH %d\n%s", len(payload), payload)
	}
	return err
}
