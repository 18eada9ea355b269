package compress

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// segmentedColumns encodes every shape of n values with every encoder.
func segmentedColumns(rng *rand.Rand, n int) [][]byte {
	var out [][]byte
	for _, vals := range columnShapes(rng, n) {
		out = append(out,
			EncodeColumn(nil, vals, Policy{}),
			EncodeColumn(nil, vals, Policy{MaxDev: 0.5}),
			EncodeColumn(nil, vals, Policy{Disable: true}),
			EncodeColumnMaxEffort(nil, vals))
	}
	return out
}

// splitSegments splits a segmented column into its value count, segment
// lengths and segment bytes; ok is false for any other column.
func splitSegments(col []byte) (n uint64, lens []uint64, body []byte, ok bool) {
	if len(col) == 0 || Codec(col[0]) != CodecSegments {
		return 0, nil, nil, false
	}
	n, k := binary.Uvarint(col[1:])
	if k <= 0 || n <= SegmentValues || n > MaxColumnValues {
		return 0, nil, nil, false
	}
	body = col[1+k:]
	for s := uint64(0); s < (n+SegmentValues-1)/SegmentValues; s++ {
		l, k := binary.Uvarint(body)
		if k <= 0 {
			return 0, nil, nil, false
		}
		lens, body = append(lens, l), body[k:]
	}
	return n, lens, body, true
}

// segmentedColumn frames a value count, segment lengths and segment bytes.
func segmentedColumn(n uint64, lens []uint64, body []byte) []byte {
	col := binary.AppendUvarint([]byte{byte(CodecSegments)}, n)
	for _, l := range lens {
		col = binary.AppendUvarint(col, l)
	}
	return append(col, body...)
}

// checkColumnRanges fails unless every decode of [from, to) that col
// answers is the full decode's values from its start on, and the range
// decode of a column the full decode reads never fails.
func checkColumnRanges(t *testing.T, col []byte, ranges [][2]int) {
	t.Helper()
	full, err := DecodeColumn(col)
	if err != nil {
		return
	}
	for _, r := range ranges {
		got, start, err := DecodeColumnN(nil, col, r[0], r[1])
		from, to := max(r[0], 0), r[1]
		if err != nil {
			t.Fatalf("[%d,%d): full decode of %d values succeeded, range decode failed: %v", from, to, len(full), err)
		}
		end := min(max(to, 0), len(full))
		if from < end && (start > from || start < 0 || start+len(got) < end) {
			t.Fatalf("[%d,%d) of %d values: decoded [%d,%d)", from, to, len(full), start, start+len(got))
		}
		if start+len(got) > len(full) {
			t.Fatalf("[%d,%d): decoded [%d,%d) of a %d-value column", from, to, start, start+len(got), len(full))
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(full[start+i]) {
				t.Fatalf("[%d,%d): value %d = %v, the full decode has %v", from, to, start+i, v, full[start+i])
			}
		}
		if from < end && len(got) > end-start {
			t.Fatalf("[%d,%d): decoded %d values behind the range's end", from, to, start+len(got)-end)
		}
	}
}

// FuzzSegmentedColumn asserts that any decode of a value range [from, to)
// a column answers equals the full decode's values there, that a decode
// materialises at most one segment's values in front of from, and that a
// segmented column whose table is damaged — a segment length or the value
// count moved by one — fails with ErrCorrupt. Seeds are columns of 129 to
// 1,024 values under every encoder and codec, and short ones.
func FuzzSegmentedColumn(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 5, 128, 129, 256, 257, 1024} {
		for _, col := range segmentedColumns(rng, n) {
			f.Add(col, uint16(rng.Intn(n+1)), uint16(rng.Intn(n+2)))
		}
	}
	f.Fuzz(func(t *testing.T, col []byte, from, to uint16) {
		full, err := DecodeColumn(col)
		n := len(full)
		checkColumnRanges(t, col, [][2]int{{int(from), int(to)}, {int(from), int(from) + 1}, {0, n}, {n / 2, n}, {n - 1, n + 3}, {-1, 1}})
		total, lens, body, ok := splitSegments(col)
		if err != nil || !ok {
			return
		}
		if int(from) < int(to) && int(from) < n {
			got, start, _ := DecodeColumnN(nil, col, int(from), int(to))
			if start < int(from)-int(from)%SegmentValues || len(got) > min(int(to), n)-start {
				t.Fatalf("[%d,%d): decoded [%d,%d), past from's segment", from, to, start, start+len(got))
			}
		}
		for s := range lens {
			for _, d := range []int64{-1, 1} {
				moved := append([]uint64(nil), lens...)
				moved[s] = uint64(int64(moved[s]) + d)
				if _, err := DecodeColumn(segmentedColumn(total, moved, body)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("segment %d's length moved by %d: err = %v, want ErrCorrupt", s, d, err)
				}
			}
		}
		for _, d := range []int64{-1, 1} {
			if _, err := DecodeColumn(segmentedColumn(uint64(int64(total)+d), lens, body)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("value count moved by %d: err = %v, want ErrCorrupt", d, err)
			}
		}
	})
}

// TestSegmentedColumnLayout: columns of up to SegmentValues values are the
// single-codec columns they always were; longer ones are segmented, one
// segment per SegmentValues values, and a range decode inside one segment
// decodes that segment alone.
func TestSegmentedColumnLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 128, 129, 1024} {
		for _, col := range segmentedColumns(rng, n) {
			total, lens, _, ok := splitSegments(col)
			if ok != (n > SegmentValues) || ok && (total != uint64(n) || len(lens) != (n+SegmentValues-1)/SegmentValues) {
				t.Fatalf("n=%d codec %v: segmented %v, count %d, %d segments", n, ColumnCodec(col), ok, total, len(lens))
			}
			if !ok {
				continue
			}
			got, start, err := DecodeColumnN(nil, col, 300, 310)
			if n == 1024 && (err != nil || start != 256 || len(got) != 310-256) {
				t.Fatalf("n=%d: values [300,310) decoded as [%d,%d), %v", n, start, start+len(got), err)
			}
		}
	}
}
