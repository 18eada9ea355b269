package relational

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"
)

// displayText is the rendering result rows have always had on the wire:
// strconv's Format functions, one string per cell.
func displayText(v Value) string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt, KindTime:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	}
	return "?"
}

// FuzzValueAppendText holds AppendText to String and to the historical
// rendering for every kind (an out-of-range kind included), appended
// behind an existing prefix, and a row renderer's line to strings.Join of
// the cells.
func FuzzValueAppendText(f *testing.F) {
	for _, v := range []Value{
		Null, Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Time(1_384_732_800_000), Time(-1),
		Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(1e21), Float(1e20), Float(123456789012345678), Float(0.1), Float(-2.5e-7),
		Float(5e-324), Float(math.SmallestNonzeroFloat64 * 3), Float(2.2250738585072009e-308), Float(math.MaxFloat64),
		Str(""), Str("acct_000042"), Str("a\tb"), Str("\t"), Str("line\nbreak"), Str("NULL"), Str("ünïcödé"),
		{Kind: Kind(7), I: 3, F: 1.5, S: "x"},
	} {
		f.Add(uint8(v.Kind), v.I, v.F, v.S)
	}
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string) {
		v := Value{Kind: Kind(kind % 6), I: i, F: fl, S: s}
		want := displayText(v)
		if got := v.AppendText(nil); string(got) != want {
			t.Fatalf("%#v: AppendText = %q, want %q", v, got, want)
		}
		if got := v.String(); got != want {
			t.Fatalf("%#v: String = %q, want %q", v, got, want)
		}
		prefix := []byte("cell\t")
		if got := v.AppendText(prefix); string(got) != "cell\t"+want {
			t.Fatalf("%#v: AppendText behind a prefix = %q", v, got)
		}
		row := []Value{v, Int(i), Float(fl), Null, Str(s)}
		cells := make([]string, len(row))
		for k, c := range row {
			cells[k] = displayText(c)
		}
		if got, want := new(RowRenderer).AppendRow(nil, row, "\t"), strings.Join(cells, "\t"); string(got) != want {
			t.Fatalf("AppendRow = %q, want %q", got, want)
		}
	})
}

// TestAppendTextAllocatesNothing pins the reason AppendText exists: with
// room in dst, rendering a cell of any kind allocates nothing.
func TestAppendTextAllocatesNothing(t *testing.T) {
	row := []Value{Null, Int(-42), Time(1_384_732_800_000), Float(-2.5e-7), Float(math.Inf(1)), Str("acct_000042")}
	buf := make([]byte, 0, 256)
	var rr RowRenderer
	if n := testing.AllocsPerRun(100, func() { buf = rr.AppendRow(buf[:0], row, "\t") }); n != 0 {
		t.Fatalf("RowRenderer.AppendRow allocates %v times per row", n)
	}
	if !bytes.Equal(buf, []byte("NULL\t-42\t1384732800000\t-2.5e-07\t+Inf\tacct_000042")) {
		t.Fatalf("row = %q", buf)
	}
	// String renders through AppendText into a stack buffer: one
	// allocation, the string itself, as strconv.Format* made.
	var s string
	if n := testing.AllocsPerRun(100, func() { s = Float(-2.5e-7).String() }); n > 1 {
		t.Fatalf("String allocates %v times (%q)", n, s)
	}
}

// memoSlot is RowRenderer's slot function: the memo entry a float's bits map to.
func memoSlot(f float64) uint64 { return (math.Float64bits(f) * 0x9E3779B97F4A7C15) >> 58 }

// FuzzRowRenderer holds the memo to byte identity: a sequence of floats
// (8 bytes of bits each) rendered through one renderer, line after line
// and with the line rotated, must be the per-cell AppendText rendering
// every time — repeats served from the memo, slot collisions evicting,
// -0 apart from 0, NaN payloads, infinities, subnormals and 24-byte texts.
func FuzzRowRenderer(f *testing.F) {
	// Two values that share a memo slot, so one evicts the other.
	a, b := 0.5, 0.75
	for memoSlot(b) != memoSlot(a) {
		b += 0.25
	}
	for _, seq := range [][]float64{
		{4.99, 4.99, 9.99, 4.99, 0, 9.99, 4.99},
		{a, b, a, b, b, a},
		{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001), math.NaN()},
		{math.Inf(1), math.Inf(-1), math.Inf(1), 1e21, 1e20, 1e21},
		{5e-324, -5e-324, 2.2250738585072009e-308, 5e-324, 2.2250738585072009e-308},
		{-2.2250738585072014e-308, -1.2345678901234567e-100, -2.2250738585072014e-308, -1.2345678901234567e-100},
	} {
		var data []byte
		for _, v := range seq {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var row []Value
		for ; len(data) >= 8; data = data[8:] {
			row = append(row, Float(math.Float64frombits(binary.LittleEndian.Uint64(data))))
		}
		row = append(row, Null, Int(int64(len(row))))
		var rr RowRenderer
		var line []byte
		for pass := 0; pass < 3; pass++ {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = string(v.AppendText(nil))
			}
			line = rr.AppendRow(line[:0], row, " | ")
			if want := strings.Join(cells, " | "); string(line) != want {
				t.Fatalf("pass %d: memo rendering %q, per-cell %q", pass, line, want)
			}
			row = append(row[1:], row[0])
		}
	})
}
