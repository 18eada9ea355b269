package tsstore

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
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
