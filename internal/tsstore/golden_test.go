package tsstore

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"odh/internal/compress"
	"odh/internal/model"
)

// updateGolden rewrites testdata/blob_encoding.golden from the current
// encoders. The committed file was captured at the commit before the header
// module existed; regenerate it only for a deliberate format change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/blob_encoding.golden")

const goldenPath = "testdata/blob_encoding.golden"

// goldenFixture is one encoded ValueBlob of the pinned table.
type goldenFixture struct {
	name string
	blob []byte
}

// goldenFixtures encodes structure × tier × shape with the package's
// encoders at the one format a served store holds (v4: summary, where the
// span allows sub-bucket blocks, and columns of more than 128 values in
// segments): every byte the store writes comes out of one of these code
// paths. Records of 128 rows or fewer are byte for byte what format 3
// wrote and keep its name; the segmented shapes are named v4.
func goldenFixtures() []goldenFixture {
	type shape struct {
		name     string
		rows     int
		interval int64
		opts     encodeOpts
		value    func(row, tag int) float64
		unsorted bool // IRTS and MG: every seventh timestamp steps back
	}
	mixed := func(row, tag int) float64 {
		if (row+tag)%7 == 3 {
			return model.NullValue
		}
		return float64(row*(tag+1)) + 0.25*float64(tag)
	}
	shapes := []shape{
		{name: "tag", rows: 40, interval: 50, value: mixed},
		{name: "lossy", rows: 40, interval: 50, opts: encodeOpts{policies: []compress.Policy{{MaxDev: 0.5}, {}, {MaxDev: 2}}},
			value: func(row, tag int) float64 { return float64((row*37+tag*11)%23) + 0.125*float64(row%5) }},
		{name: "allnull", rows: 40, interval: 50, value: func(row, tag int) float64 {
			if tag == 2 {
				return model.NullValue
			}
			return mixed(row, tag)
		}},
		{name: "empty", rows: 0, interval: 50, value: mixed},
		// 60 rows 100 ms apart against a 10 ms base: 591 sub-buckets, over
		// the writer's cap, so the writer skips the block.
		{name: "manysub", rows: 60, interval: 100, value: mixed},
	}
	// Segmented shapes: NULL runs of 50 rows, offset per tag, cross the
	// 128-row segment boundaries. 129 and 256 rows still carry a
	// sub-bucket block; 257 and 1,024 span past the writer's cap.
	runs := func(row, tag int) float64 {
		if (row+30*tag)/50%2 == 1 {
			return model.NullValue
		}
		return mixed(row, tag)
	}
	for _, rows := range []int{129, 256, 257, 1024} {
		interval := int64(10)
		if rows > 256 {
			interval = 20
		}
		shapes = append(shapes, shape{name: fmt.Sprintf("seg%d", rows), rows: rows, interval: interval, value: runs, unsorted: true})
	}
	const ntags = 3
	var out []goldenFixture
	for _, structure := range []string{"rts", "irts", "mg"} {
		for _, sh := range shapes {
			pts := make([]model.Point, sh.rows)
			for i := range pts {
				ts := 1000 + int64(i)*sh.interval
				if structure != "rts" {
					ts += int64(i % 3) // irregular, still non-decreasing
					if sh.unsorted && i%7 == 6 {
						ts -= 3 * sh.interval
					}
				}
				vals := make([]float64, ntags)
				for tag := range vals {
					vals[tag] = sh.value(i, tag)
				}
				pts[i] = model.Point{Source: 7, TS: ts, Values: vals}
			}
			for _, cold := range []bool{false, true} {
				if cold && structure == "mg" {
					continue // only the per-source trees tier
				}
				opts := sh.opts
				opts.subBucketMs = 10
				opts.cold = cold
				var blob []byte
				switch structure {
				case "rts":
					blob = EncodeRTS(pts, ntags, sh.interval, opts)
				case "irts":
					blob = EncodeIRTS(pts, ntags, opts)
				default:
					// One member per point plus absent members, offsets
					// relative to the record's window base.
					members := max(len(pts)+2, len(pts)+(len(pts)-1)/20)
					present := make([]bool, members)
					rows := make([][]float64, members)
					offsets := make([]int64, members)
					for i, p := range pts {
						slot := i + i/20 // leaves slots 20 and 41 absent
						present[slot], rows[slot], offsets[slot] = true, p.Values, p.TS-1000
					}
					blob = EncodeMG(present, rows, offsets, ntags, opts)
				}
				tier := "hot"
				if cold {
					tier = "cold"
				}
				format := "v3"
				if sh.rows > segmentRows {
					format = "v4"
				}
				name := fmt.Sprintf("%s/%s/%s/%s", structure, sh.name, format, tier)
				out = append(out, goldenFixture{name, blob})
				if stub, ok := makeStubBlob(blob); ok {
					out = append(out, goldenFixture{name + "/stub", stub})
				}
			}
		}
	}
	return out
}

// TestBlobEncodingGolden pins the encoded bytes of every blob shape the
// store can write: a digest mismatch is a format break, which readers of
// existing stores would see as corruption.
func TestBlobEncodingGolden(t *testing.T) {
	fixtures := goldenFixtures()
	blobs := make(map[string][]byte, len(fixtures))
	var got []string
	for _, fx := range fixtures {
		blobs[fx.name] = fx.blob
		got = append(got, fmt.Sprintf("%s %d %x", fx.name, len(fx.blob), sha256.Sum256(fx.blob)))
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d fixtures encoded, golden file pins %d (a stub or fixture appeared or vanished)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("encoding changed:\n got %s\nwant %s", got[i], want[i])
		}
	}

	// A stub is the blob's header, byte for byte, with only the stub bit
	// added.
	for _, fx := range fixtures {
		if !strings.HasSuffix(fx.name, "/stub") {
			continue
		}
		full := blobs[strings.TrimSuffix(fx.name, "/stub")]
		if len(fx.blob) > len(full) || fx.blob[0] != full[0]|flagStub || !bytes.Equal(fx.blob[1:], full[1:len(fx.blob)]) {
			t.Errorf("%s is not a header prefix of its blob", fx.name)
		}
	}
}

const encodeGoldenPath = "testdata/encode.golden"

// encodeFixtures are the encoders' outputs on seeded inputs: every column
// codec — XOR, linear, quant, int-delta, raw, the max-effort pick and the
// segmented wrapper — called directly and through the column picks, then one
// seeded 128-row RTS, IRTS and MG record of four tags with a summary, the
// per-source ones with a sub-bucket block. The digests were captured before
// the bit writer appended whole words: they pin that it writes the same bits.
func encodeFixtures(t *testing.T) []goldenFixture {
	rng := rand.New(rand.NewSource(51))
	var out []goldenFixture
	add := func(name string, b []byte) { out = append(out, goldenFixture{name, b}) }
	type column struct {
		name string
		vals []float64
	}
	// price is a TD-like walk in cents; bits is raw random patterns, whose
	// XOR windows take every width; runs repeats values for zero XORs.
	price := func(n int) []float64 {
		v, p := make([]float64, n), 100.0
		for i := range v {
			p += float64(rng.Intn(21)-10) / 100
			v[i] = math.Round(p*100) / 100
		}
		return v
	}
	randBits := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			for {
				v[i] = math.Float64frombits(rng.Uint64() >> uint(rng.Intn(64)))
				if !math.IsNaN(v[i]) && !math.IsInf(v[i], 0) {
					break
				}
			}
		}
		return v
	}
	runs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if i == 0 || rng.Intn(4) == 0 {
				v[i] = float64(rng.Intn(1000)) / 8
			} else {
				v[i] = v[i-1]
			}
		}
		return v
	}
	noisy := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 40
		}
		return v
	}
	smooth := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 20 + 0.01*float64(i) + 0.001*rng.Float64()
		}
		return v
	}
	ints := func(n int, step func(i int) int64) []float64 {
		v, x := make([]float64, n), int64(0)
		for i := range v {
			x += step(i)
			v[i] = float64(x)
		}
		return v
	}
	counter := func(i int) int64 { return 1 }
	sawtooth := func(i int) int64 {
		if i%17 == 16 {
			return -16
		}
		return 1
	}
	// Delta-of-deltas in every bucket: 0, 7, 10, 16, 32 and 64 bits.
	jumps := func(i int) int64 {
		switch i % 50 {
		case 10:
			return 1 << 36
		case 20:
			return 40000
		case 30:
			return 1000
		case 40:
			return -100
		}
		return 5 + int64(rng.Intn(3))
	}

	for _, n := range []int{0, 1, 2, 3, 64, 128} {
		for _, c := range []column{{"price", price(n)}, {"bits", randBits(n)}, {"runs", runs(n)}} {
			add(fmt.Sprintf("xor/%s/%d", c.name, n), compress.CompressXOR(nil, c.vals))
		}
	}
	for i := 0; i < 20; i++ {
		add(fmt.Sprintf("xor/bits/seeded%d", i), compress.CompressXOR(nil, randBits(1+rng.Intn(128))))
	}
	for _, dev := range []float64{0, 0.01, 0.5} {
		add(fmt.Sprintf("linear/smooth/%g", dev), compress.CompressLinear(nil, smooth(128), dev))
		add(fmt.Sprintf("linear/price/%g", dev), compress.CompressLinear(nil, price(128), dev))
	}
	for _, bits := range []uint{1, 3, 7, 8, 13, 16, 23, 31, 32} {
		add(fmt.Sprintf("quant/noisy/%d", bits), compress.CompressQuant(nil, noisy(128), bits))
		add(fmt.Sprintf("quant/odd/%d", bits), compress.CompressQuant(nil, noisy(77), bits))
	}
	add("quant/constant/5", compress.CompressQuant(nil, []float64{4, 4, 4, 4, 4}, 5))
	for _, c := range []column{
		{"counter", ints(128, counter)}, {"sawtooth", ints(128, sawtooth)}, {"jumps", ints(128, jumps)},
		{"jumps-odd", ints(93, jumps)}, {"pair", ints(2, jumps)}, {"one", ints(1, jumps)},
	} {
		col := compress.EncodeColumnMaxEffort(nil, c.vals)
		if len(c.vals) > 2 && compress.ColumnCodec(col) != compress.CodecDelta {
			t.Fatalf("int-delta/%s: max effort picked %v, the fixture needs delta", c.name, compress.ColumnCodec(col))
		}
		add("int-delta/"+c.name, col)
	}
	for _, c := range []column{{"price", price(128)}, {"bits", randBits(128)}, {"smooth", smooth(128)}, {"constant", make([]float64, 128)}} {
		add("max-effort/"+c.name, compress.EncodeColumnMaxEffort(nil, c.vals))
	}
	for _, p := range []struct {
		name string
		pol  compress.Policy
	}{{"lossless", compress.Policy{}}, {"lossy", compress.Policy{MaxDev: 0.05}}, {"quant", compress.Policy{MaxDev: 0.001}}, {"raw", compress.Policy{Disable: true}}} {
		for _, c := range []column{{"price", price(128)}, {"noisy", noisy(128)}, {"smooth", smooth(128)}} {
			add(fmt.Sprintf("column/%s/%s", p.name, c.name), compress.EncodeColumn(nil, c.vals, p.pol))
		}
		add(fmt.Sprintf("segmented/%s/price", p.name), compress.EncodeColumn(nil, price(300), p.pol))
		add(fmt.Sprintf("segmented/%s/noisy", p.name), compress.EncodeColumn(nil, noisy(257), p.pol))
	}
	add("segmented/max-effort/ints", compress.EncodeColumnMaxEffort(nil, ints(300, jumps)))
	add("segmented/max-effort/price", compress.EncodeColumnMaxEffort(nil, price(300)))

	// One record of each structure: 128 rows, four TD-like tags, one in
	// nine values NULL.
	const rows, ntags = 128, 4
	pts := make([]model.Point, rows)
	for i := range pts {
		vals := make([]float64, ntags)
		for tag := range vals {
			switch {
			case rng.Intn(9) == 0:
				vals[tag] = model.NullValue
			case tag == 0:
				vals[tag] = math.Round((100+rng.NormFloat64())*100) / 100
			case tag == 1:
				vals[tag] = float64(rng.Intn(500))
			default:
				vals[tag] = rng.Float64() * 1000
			}
		}
		pts[i] = model.Point{Source: 3, TS: 5000 + int64(i)*50 + int64(rng.Intn(3)), Values: vals}
	}
	opts := encodeOpts{subBucketMs: 1000, policies: []compress.Policy{{}, {}, {MaxDev: 0.5}, {}}}
	rts := slices.Clone(pts)
	for i := range rts {
		rts[i].TS = 5000 + int64(i)*50
	}
	for _, cold := range []bool{false, true} {
		o := opts
		o.cold = cold
		tier := "hot"
		if cold {
			tier = "cold"
		}
		add("record/rts/"+tier, EncodeRTS(rts, ntags, 50, o))
		add("record/irts/"+tier, EncodeIRTS(pts, ntags, o))
	}
	present := make([]bool, rows+5)
	mgRows := make([][]float64, rows+5)
	offsets := make([]int64, rows+5)
	for i, p := range pts {
		slot := i + i/30
		present[slot], mgRows[slot], offsets[slot] = true, p.Values, int64(rng.Intn(60000))
	}
	add("record/mg/hot", EncodeMG(present, mgRows, offsets, ntags, opts))
	for _, fx := range out[len(out)-5:] {
		if h, ok := parseBlobHeader(fx.blob); !ok || !h.hasSummary() || (h.subOff == 0) != strings.HasPrefix(fx.name, "record/mg") {
			t.Fatalf("%s: the fixture needs a summary, and a sub-bucket block unless it is MG", fx.name)
		}
	}
	return out
}

// TestEncodeGolden pins the encoders' bytes on seeded inputs: a changed
// digest is a moved on-disk format, whatever the encoder's speed.
func TestEncodeGolden(t *testing.T) {
	var got []string
	for _, fx := range encodeFixtures(t) {
		got = append(got, fmt.Sprintf("%s %d %x", fx.name, len(fx.blob), sha256.Sum256(fx.blob)))
	}
	if *updateGolden {
		if err := os.WriteFile(encodeGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(encodeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d fixtures encoded, golden file pins %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("encoding changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
