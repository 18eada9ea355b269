package compress

import (
	"encoding/binary"
	"slices"
)

// Segmented columns. A column of more than SegmentValues values is stored
// as a run of SegmentValues-value segments, each an ordinary column — codec
// byte plus stream — so a decode of a value range starts at the segment
// holding its first value and stops inside the one holding its last,
// instead of walking the column from value 0.
//
//	CodecSegments byte
//	uvarint n          the column's value count
//	uvarint len        per segment, ceil(n/SegmentValues) of them: its bytes
//	segments           segment s holds values [s*SegmentValues, ...)
//
// Every segment but the last holds exactly SegmentValues values. A column
// of codecs 0–4 is a column of one segment; the decoder reads both through
// the same switch.

// CodecSegments (value 5 in the column codec byte) frames a column as a run
// of segments.
const CodecSegments Codec = 5

// SegmentValues is the values per segment. It is the default batch size,
// so a default hot or MG record's columns stay single segments, byte for
// byte what they were before segments existed.
const SegmentValues = 128

// appendColumn appends values as one column written by enc (codec byte
// included) when they fit a segment, and as a segmented column of enc'd
// segments otherwise. A segment's length is known once it is written, so
// the table is written into room reserved in front of the segments, which
// then move down behind it: the column takes no memory but dst's.
func appendColumn(dst []byte, values []float64, enc func(dst []byte, seg []float64) []byte) []byte {
	if len(values) <= SegmentValues {
		return enc(dst, values)
	}
	dst = append(dst, byte(CodecSegments))
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	at := len(dst)
	room := (len(values) + SegmentValues - 1) / SegmentValues * binary.MaxVarintLen32
	dst = slices.Grow(dst, room)[:at+room]
	table := 0
	for i := 0; i < len(values); i += SegmentValues {
		n := len(dst)
		dst = enc(dst, values[i:min(i+SegmentValues, len(values))])
		table += binary.PutUvarint(dst[at+table:], uint64(len(dst)-n))
	}
	return dst[:at+table+copy(dst[at+table:], dst[at+room:])]
}

// decodeSegments decodes the values [from, to) of a segmented column
// (codec byte stripped) behind the values of their first segment that
// precede from, appending them to dst: it returns dst and start, the index
// of the first value appended. Only the segments spanning [from, to) are
// decoded, the last only as far as to reaches. The table must account for
// every byte behind it, and every segment decoded must declare exactly its
// share of the column's values; a segment is a column of codecs 0–4, never
// a segmented one.
func decodeSegments(dst []float64, b []byte, from, to int) ([]float64, int, error) {
	n, table, body, err := segmentTable(b)
	if err != nil {
		return nil, 0, err
	}
	to = min(to, n)
	if from >= to {
		return dst, 0, nil
	}
	first := max(from, 0) / SegmentValues
	start := first * SegmentValues
	out := dst
	if cap(out)-len(out) < to-start {
		out = append(make([]float64, 0, len(dst)+to-start), dst...)
	}
	for s, off := 0, 0; s*SegmentValues < to; s++ {
		l, k := binary.Uvarint(table)
		table = table[k:]
		seg := body[off : off+int(l)]
		if off += int(l); s < first {
			continue
		}
		share := min(SegmentValues, n-s*SegmentValues)
		if c, k := binary.Uvarint(seg[1:]); k <= 0 || c != uint64(share) {
			return nil, 0, ErrCorrupt
		}
		want := min(share, to-s*SegmentValues)
		had := len(out)
		if out, err = decodeSegment(out, seg, want); err != nil {
			return nil, 0, err
		}
		if len(out)-had != want {
			return nil, 0, ErrCorrupt
		}
	}
	return out, start, nil
}

// segmentTable walks a segmented column's frame (codec byte stripped): it
// returns the value count, the table of segment lengths, and the segment
// bytes, which the lengths must account for exactly.
func segmentTable(b []byte) (n int, table, body []byte, err error) {
	count, k := binary.Uvarint(b)
	if k <= 0 || count <= SegmentValues || count > MaxColumnValues {
		return 0, nil, nil, ErrCorrupt
	}
	table = b[k:]
	nseg := int((count + SegmentValues - 1) / SegmentValues)
	if nseg > len(table) {
		return 0, nil, nil, ErrCorrupt // every length takes a byte
	}
	body, total := table, uint64(0)
	for s := 0; s < nseg; s++ {
		l, k := binary.Uvarint(body)
		if k <= 0 || l < 2 || l > uint64(len(b)) {
			return 0, nil, nil, ErrCorrupt
		}
		body, total = body[k:], total+l
	}
	if total != uint64(len(body)) {
		return 0, nil, nil, ErrCorrupt
	}
	return int(count), table, body, nil
}
