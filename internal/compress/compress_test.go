package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestZigzagRoundtrip(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		return Unzigzag(Zigzag(v)) == v
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Small magnitudes map to small codes.
	for _, c := range []struct {
		in   int64
		want uint64
	}{{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4}} {
		if got := Zigzag(c.in); got != c.want {
			t.Fatalf("Zigzag(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDeltasRoundtrip(t *testing.T) {
	if err := quick.Check(func(vals []int64) bool {
		enc := AppendDeltas(nil, vals)
		dec, rest, err := Deltas(nil, enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		// Into a destination that holds other values and has room: the
		// same values, in its array.
		dst := make([]int64, 1, len(vals)+1)
		if into, _, err := Deltas(dst, enc); err != nil || !slices.Equal(into, dec) || len(into) > 0 && &into[0] != &dst[0] {
			return false
		}
		if len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaAtIsDeltasIndexed: DeltaAt(b, i) is Deltas(b)[i] with the same
// length and rest, for every i, and fails wherever Deltas fails — a
// varint cut short or overlong behind value i included.
func TestDeltaAtIsDeltasIndexed(t *testing.T) {
	if err := quick.Check(func(vals []int64, tail []byte) bool {
		enc := append(AppendDeltas(nil, vals), tail...)
		dec, rest, err := Deltas(nil, enc)
		if err != nil {
			return false
		}
		for i := range dec {
			v, n, r, err := DeltaAt(enc, i)
			if err != nil || v != dec[i] || n != len(dec) || len(r) != len(rest) {
				return false
			}
		}
		_, _, _, errPast := DeltaAt(enc, len(dec))
		_, _, _, errBefore := DeltaAt(enc, -1)
		return errPast != nil && errBefore != nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 2000; round++ {
		vals := make([]int64, 1+rng.Intn(20))
		for i := range vals {
			vals[i] = rng.Int63n(1<<40) - 1<<39
		}
		enc := AppendDeltas(nil, vals)
		// Damage one byte: truncate, or set a continuation bit.
		if rng.Intn(2) == 0 {
			enc = enc[:rng.Intn(len(enc))]
		} else {
			enc[rng.Intn(len(enc))] |= 0x80
		}
		_, _, want := Deltas(nil, enc)
		for i := 0; i < len(vals); i++ {
			if _, _, _, err := DeltaAt(enc, i); (err == nil) != (want == nil) {
				t.Fatalf("round %d value %d: DeltaAt err %v, Deltas err %v", round, i, err, want)
			}
		}
	}
}

// skipUvarintsRef is SkipUvarints byte by byte: a binary.Uvarint loop.
func skipUvarintsRef(b []byte, n int) (int, bool) {
	off := 0
	for ; n > 0; n-- {
		_, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return off, false
		}
		off += k
	}
	return off, true
}

// FuzzSkipUvarints holds SkipUvarints to the byte-wise loop: the same
// offset and verdict for every count, wherever the bytes end, a uvarint
// runs past ten bytes or overflows in its tenth.
func FuzzSkipUvarints(f *testing.F) {
	long := binary.AppendUvarint(nil, math.MaxUint64)
	f.Add(AppendDeltas(nil, []int64{1, 1 << 20, -5, 0, 1 << 62, 7, 300, 2, 2, 2, 2, 2, 2, 2, 2}), uint8(15))
	f.Add(append(bytes.Repeat([]byte{1}, 13), long...), uint8(14))
	f.Add(append(bytes.Repeat([]byte{0x80}, 9), 2, 0), uint8(2))
	f.Add(append(bytes.Repeat([]byte{0x80}, 10), 0), uint8(1))
	f.Add(append(bytes.Repeat([]byte{0}, 7), long[:9]...), uint8(8))
	f.Fuzz(func(t *testing.T, b []byte, n uint8) {
		for k := range int(n) + 2 {
			off, ok := SkipUvarints(b, k)
			wantOff, wantOK := skipUvarintsRef(b, k)
			if off != wantOff || ok != wantOK {
				t.Fatalf("%x, %d uvarints: (%d, %v), want (%d, %v)", b, k, off, ok, wantOff, wantOK)
			}
		}
	})
}

// TestDecodeColumnNEmptyRange: an empty range [k, k) decodes no values and
// names no window past the column's end, whatever the codec and wherever k
// lies, segmented columns included.
func TestDecodeColumnNEmptyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seen := map[Codec]bool{}
	for _, n := range []int{17, 300} {
		for _, col := range segmentedColumns(rng, n) {
			seen[Codec(col[0])] = true
			for _, k := range []int{0, 1, n / 2, n - 1, n, n + 3} {
				got, start, err := DecodeColumnN(nil, col, k, k)
				if err != nil || len(got) != 0 || start > min(k, n) {
					t.Fatalf("%v n=%d: [%d,%d) returned %d values from %d, %v", ColumnCodec(col), n, k, k, len(got), start, err)
				}
			}
		}
	}
	for _, c := range []Codec{CodecRaw, CodecLinear, CodecQuant, CodecXOR, CodecDelta, CodecSegments} {
		if !seen[c] {
			t.Fatalf("no column exercised codec %v", c)
		}
	}
}

func TestDeltaOfDeltasRoundtrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{42},
		{1, 2},
		{0, 1000, 2000, 3000, 4000}, // perfectly regular
		{-5, 10, -20, 40, 81, 163},
	}
	for _, vals := range cases {
		enc := AppendDeltaOfDeltas(nil, vals)
		dec, rest, err := DeltaOfDeltas(nil, enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: %v", vals, err)
		}
		dst := []int64{7, 7, 7, 7, 7, 7, 7}
		if into, _, err := DeltaOfDeltas(dst, enc); err != nil || !slices.Equal(into, dec) || len(into) > 0 && &into[0] != &dst[0] {
			t.Fatalf("%v: into a destination with room: %v, %v", vals, into, err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("%v: len %d", vals, len(dec))
		}
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("%v: idx %d", vals, i)
			}
		}
	}
}

func TestDeltaOfDeltasRegularIsTiny(t *testing.T) {
	// A regular 15-minute interval series: after the first two values, each
	// timestamp costs one byte (the zero second-order delta).
	ts := make([]int64, 1000)
	for i := range ts {
		ts[i] = 1386000000000 + int64(i)*900000
	}
	enc := AppendDeltaOfDeltas(nil, ts)
	if len(enc) > 2+10+10+len(ts) {
		t.Fatalf("regular series encoded to %d bytes, want ~%d", len(enc), len(ts))
	}
	plain := len(ts) * 8
	if len(enc)*7 > plain {
		t.Fatalf("compression ratio too low: %d vs %d raw", len(enc), plain)
	}
}

func TestVarintCorruption(t *testing.T) {
	if _, _, err := Varint(nil); err == nil {
		t.Fatal("empty varint accepted")
	}
	if _, _, err := Deltas(nil, []byte{0xFF}); err == nil {
		t.Fatal("truncated deltas accepted")
	}
	// Implausible count is rejected rather than allocating gigabytes.
	huge := AppendVarint(nil, 0)
	huge[0] = 0xFF
	big := append([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, 0)
	if _, _, err := Deltas(nil, big); err == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestBitpackRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := &BitWriter{}
	type item struct {
		v     uint64
		width uint
	}
	var items []item
	for i := 0; i < 1000; i++ {
		width := uint(1 + rng.Intn(64))
		v := rng.Uint64()
		if width < 64 {
			v &= (1 << width) - 1
		}
		items = append(items, item{v, width})
		w.WriteBits(v, width)
	}
	r := NewBitReader(w.Bytes())
	for i, it := range items {
		got := r.ReadBits(it.width)
		if err := r.Err(); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got != it.v {
			t.Fatalf("item %d: got %x want %x (width %d)", i, got, it.v, it.width)
		}
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xAB})
	if v := r.ReadBits(8); v != 0xAB || r.Err() != nil {
		t.Fatalf("ReadBits(8) = %#x, %v", v, r.Err())
	}
	if v := r.ReadBits(1); v != 0 || r.Err() == nil {
		t.Fatalf("read past end accepted: %d, %v", v, r.Err())
	}
}

func TestLinearLosslessOnLine(t *testing.T) {
	// Exactly collinear data compresses to two spike points and decodes
	// exactly, even at maxDev 0.
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = 3 + 0.25*float64(i)
	}
	enc := CompressLinear(nil, vals, 0)
	if len(enc) > 64 {
		t.Fatalf("collinear run encoded to %d bytes", len(enc))
	}
	dec, _, err := DecompressLinear(nil, enc, MaxColumnValues)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(dec[i]-vals[i]) > 1e-9 {
			t.Fatalf("lossless linear mismatch at %d: %v != %v", i, dec[i], vals[i])
		}
	}
}

func TestLinearErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(500)
		vals := make([]float64, n)
		v := 100.0
		for i := range vals {
			v += rng.NormFloat64() * 0.05 // smooth random walk
			vals[i] = v
		}
		for _, maxDev := range []float64{0, 0.01, 0.1, 1.0} {
			if worst := MaxLinearError(vals, maxDev); worst > maxDev+1e-9 {
				t.Fatalf("trial %d maxDev %v: worst error %v", trial, maxDev, worst)
			}
		}
	}
}

func TestLinearCompressesSmoothData(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 20 + 0.001*float64(i) + 0.02*math.Sin(float64(i)/200)
	}
	enc := CompressLinear(nil, vals, 0.1)
	raw := len(vals) * 8
	if len(enc)*10 > raw {
		t.Fatalf("smooth data: %d bytes vs %d raw (want >=10x)", len(enc), raw)
	}
}

func TestLinearEdgeCases(t *testing.T) {
	for _, vals := range [][]float64{nil, {7}, {7, 7}, {7, 8}} {
		enc := CompressLinear(nil, vals, 0.5)
		dec, _, err := DecompressLinear(nil, enc, MaxColumnValues)
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("%v: len %d", vals, len(dec))
		}
		for i := range vals {
			if math.Abs(dec[i]-vals[i]) > 0.5 {
				t.Fatalf("%v: idx %d", vals, i)
			}
		}
	}
}

func TestQuantRoundtripWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 777)
	for i := range vals {
		vals[i] = rng.Float64()*200 - 100
	}
	for _, bits := range []uint{1, 4, 8, 12, 16, 32} {
		enc := CompressQuant(nil, vals, bits)
		dec, err := DecompressQuant(nil, enc, MaxColumnValues)
		if err != nil {
			t.Fatalf("bits %d: %v", bits, err)
		}
		bound := QuantErrorBound(-100, 100, bits) * 1.01
		for i := range vals {
			if math.Abs(dec[i]-vals[i]) > bound {
				t.Fatalf("bits %d idx %d: err %v > bound %v", bits, i, math.Abs(dec[i]-vals[i]), bound)
			}
		}
	}
}

func TestQuantRatio(t *testing.T) {
	// The paper's 4-to-16-fold claim: 8-bit quantization of float64 is 8x
	// minus the block header.
	vals := make([]float64, 4096)
	rng := rand.New(rand.NewSource(9))
	for i := range vals {
		vals[i] = rng.Float64()
	}
	enc := CompressQuant(nil, vals, 8)
	ratio := float64(len(vals)*8) / float64(len(enc))
	if ratio < 7 || ratio > 8.5 {
		t.Fatalf("8-bit quantization ratio %.2f, want ~8", ratio)
	}
	enc4 := CompressQuant(nil, vals, 4)
	ratio4 := float64(len(vals)*8) / float64(len(enc4))
	if ratio4 < 14 {
		t.Fatalf("4-bit quantization ratio %.2f, want ~16", ratio4)
	}
}

func TestQuantDegenerate(t *testing.T) {
	vals := []float64{5, 5, 5, 5}
	dec, err := DecompressQuant(nil, CompressQuant(nil, vals, 8), MaxColumnValues)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec {
		if v != 5 {
			t.Fatalf("constant block decoded to %v", v)
		}
	}
	if _, err := DecompressQuant(nil, CompressQuant(nil, nil, 8), MaxColumnValues); err != nil {
		t.Fatalf("empty block: %v", err)
	}
}

func TestXORLossless(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		enc := CompressXOR(nil, vals)
		dec, err := DecompressXOR(nil, enc, MaxColumnValues)
		if err != nil || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(dec[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestXORCompressesStableData(t *testing.T) {
	// Slowly changing values share exponent and mantissa prefixes.
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 220 + float64(i%4)
	}
	enc := CompressXOR(nil, vals)
	if len(enc)*3 > len(vals)*8 {
		t.Fatalf("stable data: %d bytes vs %d raw", len(enc), len(vals)*8)
	}
}

func TestEncodeColumnPolicyDispatch(t *testing.T) {
	smooth := make([]float64, 256)
	for i := range smooth {
		smooth[i] = float64(i) * 0.5
	}
	noisy := make([]float64, 256)
	rng := rand.New(rand.NewSource(2))
	for i := range noisy {
		noisy[i] = rng.Float64() * 1000
	}

	if c := ColumnCodec(EncodeColumn(nil, smooth, Policy{MaxDev: 0.1})); c != CodecLinear {
		t.Fatalf("smooth lossy chose %v, want linear", c)
	}
	if c := ColumnCodec(EncodeColumn(nil, noisy, Policy{MaxDev: 0.1})); c != CodecQuant {
		t.Fatalf("noisy lossy chose %v, want quant", c)
	}
	if c := ColumnCodec(EncodeColumn(nil, noisy, Policy{Disable: true})); c != CodecRaw {
		t.Fatalf("disabled chose %v, want raw", c)
	}
	lossless := EncodeColumn(nil, noisy, Policy{})
	dec, err := DecodeColumn(lossless)
	if err != nil {
		t.Fatal(err)
	}
	for i := range noisy {
		if dec[i] != noisy[i] {
			t.Fatalf("lossless roundtrip mismatch at %d", i)
		}
	}
}

func TestEncodeColumnLossyBound(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()*100 - 50
		}
		const maxDev = 0.25
		dec, err := DecodeColumn(EncodeColumn(nil, vals, Policy{MaxDev: maxDev}))
		if err != nil || len(dec) != n {
			return false
		}
		for i := range vals {
			if math.Abs(dec[i]-vals[i]) > maxDev*1.01 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeColumnCorrupt(t *testing.T) {
	if _, err := DecodeColumn(nil); err == nil {
		t.Fatal("empty column accepted")
	}
	if _, err := DecodeColumn([]byte{99, 1, 2, 3}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	good := EncodeColumn(nil, []float64{1, 2, 3, 4, 5, 6, 7, 8}, Policy{})
	if _, err := DecodeColumn(good[:len(good)/2]); err == nil {
		t.Fatal("truncated column accepted")
	}
}

func BenchmarkLinearCompress(b *testing.B) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 20 + 0.01*float64(i) + 0.05*math.Sin(float64(i)/40)
	}
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		CompressLinear(nil, vals, 0.1)
	}
}

func BenchmarkQuantCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		CompressQuant(nil, vals, 10)
	}
}

func BenchmarkXORCompress(b *testing.B) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 220 + float64(i%16)*0.25
	}
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		CompressXOR(nil, vals)
	}
}

func BenchmarkXORDecompress(b *testing.B) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 220 + float64(i%16)*0.25
	}
	enc := CompressXOR(nil, vals)
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecompressXOR(nil, enc, MaxColumnValues)
	}
}

// columnShapes are value series that between them make EncodeColumn and
// EncodeColumnMaxEffort pick every codec.
func columnShapes(rng *rand.Rand, n int) map[string][]float64 {
	shapes := map[string][]float64{
		"constant": make([]float64, n),
		"ramp":     make([]float64, n),
		"noisy":    make([]float64, n),
		"smooth":   make([]float64, n),
		"steps":    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		shapes["constant"][i] = 7.25
		shapes["ramp"][i] = float64(3 * i)
		shapes["noisy"][i] = rng.Float64() * 100
		shapes["smooth"][i] = 20 + 0.01*float64(i) + 0.001*rng.Float64()
		shapes["steps"][i] = 220 + float64(i%16)*0.25
	}
	return shapes
}

// TestDecodeColumnNIsAPrefix: for every codec and every limit,
// DecodeColumnN(b, 0, n) is DecodeColumn(b)[:n], bit for bit.
func TestDecodeColumnNIsAPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := map[Codec]bool{}
	for _, n := range []int{0, 1, 2, 3, 17, 300} {
		for name, vals := range columnShapes(rng, n) {
			cols := [][]byte{
				EncodeColumn(nil, vals, Policy{}),
				EncodeColumn(nil, vals, Policy{MaxDev: 0.5}),
				EncodeColumn(nil, vals, Policy{Disable: true}),
				EncodeColumnMaxEffort(nil, vals),
			}
			for ci, col := range cols {
				seen[ColumnCodec(col)] = true
				full, err := DecodeColumn(col)
				if err != nil || len(full) != n {
					t.Fatalf("%s/%d n=%d: full decode %d values, %v", name, ci, n, len(full), err)
				}
				for _, limit := range []int{0, 1, 2, n / 2, n - 1, n, n + 5} {
					if limit < 0 {
						continue
					}
					got, start, err := DecodeColumnN(nil, col, 0, limit)
					if err != nil || start != 0 {
						t.Fatalf("%s/%d n=%d limit=%d: start %d, %v", name, ci, n, limit, start, err)
					}
					want := full[:min(limit, n)]
					if len(got) != len(want) {
						t.Fatalf("%s/%d n=%d limit=%d: %d values, want %d", name, ci, n, limit, len(got), len(want))
					}
					// Into a destination that holds other values and has
					// room: the same values, in its array.
					dst := make([]float64, 1, limit+3)
					dst[0] = -7
					into, _, err := DecodeColumnN(dst, col, 0, limit)
					if err != nil || len(into) != len(want) || len(into) > 0 && &into[0] != &dst[0] {
						t.Fatalf("%s/%d n=%d limit=%d: into a destination with room: %d values, %v", name, ci, n, limit, len(into), err)
					}
					got = append(got, into...)
					want = append(want[:len(want):len(want)], want...)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%d (%v) n=%d limit=%d: value %d = %v, want %v", name, ci, ColumnCodec(col), n, limit, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	for _, c := range []Codec{CodecRaw, CodecLinear, CodecQuant, CodecXOR, CodecDelta} {
		if !seen[c] {
			t.Fatalf("no shape exercised codec %v", c)
		}
	}
}

// TestDecodersDoNotAllocateFromUntrustedCount: a few bytes claiming millions
// of values are rejected before a slice is made for them.
func TestDecodersDoNotAllocateFromUntrustedCount(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x08} // uvarint 1<<24
	cases := map[string]func() error{
		"xor":   func() error { _, err := DecodeColumn(append([]byte{byte(CodecXOR)}, huge...)); return err },
		"raw":   func() error { _, err := DecodeColumn(append([]byte{byte(CodecRaw)}, huge...)); return err },
		"delta": func() error { _, err := DecodeColumn(append([]byte{byte(CodecDelta)}, huge...)); return err },
		"quant": func() error { _, err := DecodeColumn(append([]byte{byte(CodecQuant)}, append(huge, 8)...)); return err },
		"linear": func() error {
			_, err := DecodeColumn(append([]byte{byte(CodecLinear)}, append(huge, huge...)...))
			return err
		},
		"segments": func() error { _, err := DecodeColumn(append([]byte{byte(CodecSegments)}, huge...)); return err },
		// A well-framed two-segment column whose first segment claims the
		// huge count instead of its 128 values.
		"segment count": func() error {
			seg := append(append([]byte{byte(CodecXOR)}, huge...), make([]byte, 8)...)
			col := append([]byte{byte(CodecSegments), 129, 1, byte(len(seg)), byte(len(seg))}, seg...)
			_, err := DecodeColumn(append(col, seg...))
			return err
		},
		"deltas": func() error { _, _, err := Deltas(nil, huge); return err },
		"dod":    func() error { _, _, err := DeltaOfDeltas(nil, huge); return err },
	}
	for name, decode := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte column", name, grew, len(huge)+1)
		}
	}
	// A linear column's value count is bounded by the caller's limit alone:
	// a constant run of any length is legitimately one nine-byte segment.
	run := CompressLinear([]byte{byte(CodecLinear)}, make([]float64, 1<<20), 0)
	if got, _, err := DecodeColumnN(nil, run, 0, 10); err != nil || len(got) != 10 {
		t.Fatalf("constant run, limit 10: %d values, %v", len(got), err)
	}
}

// TestColumnBound: no column outgrows ColumnBound, whatever the codec, the
// policy or the length — random bit patterns, XOR's worst case, included.
func TestColumnBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 7, 127, 128, 129, 300, 1024} {
		shapes := columnShapes(rng, n)
		bits := make([]float64, n)
		for i := range bits {
			bits[i] = math.Float64frombits(rng.Uint64() &^ (1 << 62)) // finite: exponent never all ones
		}
		shapes["bits"] = bits
		for name, vals := range shapes {
			for _, pol := range []Policy{{}, {MaxDev: 0.01}, {MaxDev: 1e-9}, {Disable: true}} {
				if got := len(EncodeColumn(nil, vals, pol)); got > ColumnBound(n) {
					t.Errorf("%s, %d values, %+v: %d bytes, bound %d", name, n, pol, got, ColumnBound(n))
				}
			}
			if got := len(EncodeColumnMaxEffort(nil, vals)); got > ColumnBound(n) {
				t.Errorf("%s, %d values, max effort: %d bytes, bound %d", name, n, got, ColumnBound(n))
			}
		}
	}
}
