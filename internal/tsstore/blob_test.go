package tsstore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"odh/internal/compress"
	"odh/internal/model"
)

func mkPoints(source int64, baseTS, interval int64, vals [][]float64) []model.Point {
	pts := make([]model.Point, len(vals))
	for i, v := range vals {
		pts[i] = model.Point{Source: source, TS: baseTS + int64(i)*interval, Values: v}
	}
	return pts
}

func TestEncodeDecodeRTS(t *testing.T) {
	vals := [][]float64{{1, 10}, {2, 20}, {3, model.NullValue}, {4, 40}}
	pts := mkPoints(7, 1000, 50, vals)
	blob := EncodeRTS(pts, 2, 50, encodeOpts{})
	dec, err := DecodeBlob(blob, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Structure != model.RTS || len(dec.Rows) != 4 {
		t.Fatalf("decoded %+v", dec)
	}
	for i, ts := range dec.Timestamps {
		if ts != 1000+int64(i)*50 {
			t.Fatalf("ts[%d] = %d", i, ts)
		}
	}
	if dec.Rows[0][0] != 1 || dec.Rows[3][1] != 40 {
		t.Fatalf("rows: %v", dec.Rows)
	}
	if !model.IsNull(dec.Rows[2][1]) {
		t.Fatal("NULL lost")
	}
}

func TestEncodeDecodeIRTS(t *testing.T) {
	pts := []model.Point{
		{Source: 1, TS: 100, Values: []float64{1}},
		{Source: 1, TS: 137, Values: []float64{2}},
		{Source: 1, TS: 512, Values: []float64{3}},
	}
	blob := EncodeIRTS(pts, 1, encodeOpts{})
	dec, err := DecodeBlob(blob, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 137, 512}
	for i, ts := range dec.Timestamps {
		if ts != want[i] {
			t.Fatalf("ts[%d] = %d", i, ts)
		}
	}
}

func TestEncodeDecodeMGWithOffsets(t *testing.T) {
	present := []bool{true, false, true, true}
	rows := [][]float64{{1, 2}, nil, {3, model.NullValue}, {5, 6}}
	offsets := []int64{0, 0, 120, 7450}
	blob := EncodeMG(present, rows, offsets, 2, encodeOpts{})
	dec, err := DecodeBlob(blob, 900000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Slots) != 3 || dec.Slots[0] != 0 || dec.Slots[1] != 2 || dec.Slots[2] != 3 {
		t.Fatalf("slots: %v", dec.Slots)
	}
	if dec.Timestamps[0] != 900000 || dec.Timestamps[1] != 900120 || dec.Timestamps[2] != 907450 {
		t.Fatalf("timestamps: %v", dec.Timestamps)
	}
	if dec.Rows[2][1] != 6 {
		t.Fatalf("rows: %v", dec.Rows)
	}
	if !model.IsNull(dec.Rows[1][1]) {
		t.Fatal("NULL lost in MG")
	}
}

func TestDecodeBlobCorruption(t *testing.T) {
	pts := mkPoints(1, 0, 10, [][]float64{{1}, {2}})
	blob := EncodeRTS(pts, 1, 10, encodeOpts{})
	if _, err := DecodeBlob(nil, 0, nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, err := DecodeBlob([]byte{99}, 0, nil); err == nil {
		t.Fatal("unknown format accepted")
	}
	for cut := 1; cut < len(blob); cut += 3 {
		if _, err := DecodeBlob(blob[:cut], 0, nil); err == nil {
			t.Fatalf("truncated blob (%d bytes) accepted", cut)
		}
	}
}

func TestBlobRoundtripQuick(t *testing.T) {
	check := func(seedVals []float64, ntagsRaw uint8) bool {
		ntags := int(ntagsRaw%4) + 1
		if len(seedVals) == 0 {
			return true
		}
		n := len(seedVals)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, ntags)
			for j := range rows[i] {
				v := seedVals[(i+j)%n]
				if math.IsNaN(v) {
					v = model.NullValue
				}
				rows[i][j] = v
			}
		}
		pts := mkPoints(3, 500, 25, rows)
		blob := EncodeRTS(pts, ntags, 25, encodeOpts{})
		dec, err := DecodeBlob(blob, 500, nil)
		if err != nil || len(dec.Rows) != n {
			return false
		}
		for i := range rows {
			for j := range rows[i] {
				a, b := rows[i][j], dec.Rows[i][j]
				if model.IsNull(a) != model.IsNull(b) {
					return false
				}
				if !model.IsNull(a) && math.Float64bits(a) != math.Float64bits(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// blobOverlaps is the zone-map skip decision for raw bytes: peek at the
// header only, no column decode.
func blobOverlaps(b []byte, ranges []TagRange) bool {
	h, _ := parseBlobHeader(b)
	return h.overlaps(ranges)
}

func TestBlobOverlapsZoneMaps(t *testing.T) {
	// Tag 0 in [1, 4], tag 1 all NULL.
	vals := [][]float64{{1, model.NullValue}, {4, model.NullValue}}
	blob := EncodeRTS(mkPoints(1, 0, 10, vals), 2, 10, encodeOpts{})

	cases := []struct {
		ranges []TagRange
		want   bool
	}{
		{nil, true},
		{[]TagRange{{Tag: 0, Lo: 2, Hi: 3}}, true},    // inside
		{[]TagRange{{Tag: 0, Lo: 5, Hi: 9}}, false},   // above max
		{[]TagRange{{Tag: 0, Lo: -9, Hi: 0}}, false},  // below min
		{[]TagRange{{Tag: 0, Lo: 4, Hi: 99}}, true},   // touches max
		{[]TagRange{{Tag: 1, Lo: 0, Hi: 100}}, false}, // all-NULL column never matches
		{[]TagRange{{Tag: 9, Lo: 0, Hi: 1}}, true},    // out-of-range tag: no skip
	}
	for i, c := range cases {
		if got := blobOverlaps(blob, c.ranges); got != c.want {
			t.Fatalf("case %d: overlaps = %v, want %v", i, got, c.want)
		}
	}
	// IRTS and MG headers must be peekable too.
	irts := EncodeIRTS(mkPoints(1, 0, 10, vals), 2, encodeOpts{})
	if blobOverlaps(irts, []TagRange{{Tag: 0, Lo: 50, Hi: 60}}) {
		t.Fatal("IRTS zone map not consulted")
	}
	mg := EncodeMG([]bool{true, true}, vals, []int64{0, 5}, 2, encodeOpts{})
	if blobOverlaps(mg, []TagRange{{Tag: 0, Lo: 50, Hi: 60}}) {
		t.Fatal("MG zone map not consulted")
	}
}

func TestZoneMapSkipInScan(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 10}, 0)
	s := f.schema(t, "zones", 1)
	ds := f.source(t, s.ID, true, 10)
	// 10 batches: batch k holds values [k*100, k*100+9].
	for i := 0; i < 100; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{float64(i/10*100 + i%10)}})
	}
	f.store.Flush()
	// A range matching only batch 7's values must skip the other 9 blobs.
	before := f.store.Stats().ZoneSkips
	it, err := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil, TagRange{Tag: 0, Lo: 700, Hi: 709})
	if err != nil {
		t.Fatal(err)
	}
	pts := collect(t, it)
	if len(pts) != 10 {
		t.Fatalf("scan returned %d points, want 10 (zone maps must not drop matches)", len(pts))
	}
	if n := f.store.Stats().ZoneSkips - before; n != 9 {
		t.Fatalf("skipped %d blobs, want 9", n)
	}
	// An aggregate under the same predicate skips the same nine.
	before = f.store.Stats().ZoneSkips
	res, err := f.store.AggregateHistorical(ds.ID, AggSpec{T1: 0, T2: math.MaxInt64, NTags: 1, Preds: []TagPred{{Tag: 0, Lo: 700, Hi: 709}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Rows != 10 {
		t.Fatalf("aggregate groups %+v, want one of 10 rows", res.Groups)
	}
	if n := f.store.Stats().ZoneSkips - before; n != 9 {
		t.Fatalf("aggregate skipped %d blobs, want 9", n)
	}
}

func TestZoneMapLossyBoundsStillSafe(t *testing.T) {
	// With lossy compression the decoded values can deviate from the
	// originals by maxDev; zone maps are computed on the originals, so a
	// range query needs its bounds widened by maxDev if it wants decoded
	// values near the boundary. This test pins the documented behaviour:
	// exact-original bounds never skip blobs containing original matches.
	page := newFixture(t, Config{BatchSize: 16}, 0)
	schema, err := page.cat.CreateSchemaType("lossy", []model.TagDef{
		{Name: "v", Compression: compress.Policy{MaxDev: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := page.cat.RegisterSource(model.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	for i := 0; i < 32; i++ {
		page.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{float64(i)}})
	}
	page.store.Flush()
	it, err := page.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil, TagRange{Tag: 0, Lo: 10, Hi: 20})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("zone maps dropped all rows under lossy compression")
	}
}

// tdRecord is one source's rows of a TD-like irregular stream, ~20 Hz: a
// price walk in cents, integral quantities and free floats, one value in
// nine NULL.
func tdRecord(rows, ntags int) []model.Point {
	rng := rand.New(rand.NewSource(int64(rows*100 + ntags)))
	pts := make([]model.Point, rows)
	price := 100.0
	for i := range pts {
		vals := make([]float64, ntags)
		for tag := range vals {
			switch {
			case rng.Intn(9) == 0:
				vals[tag] = model.NullValue
			case tag == 0:
				price += float64(rng.Intn(21)-10) / 100
				vals[tag] = math.Round(price*100) / 100
			case tag%2 == 1:
				vals[tag] = float64(rng.Intn(500))
			default:
				vals[tag] = rng.Float64() * 1000
			}
		}
		pts[i] = model.Point{Source: 1, TS: 1000 + int64(i)*50 + int64(rng.Intn(7)), Values: vals}
	}
	return pts
}

// recordEncoder returns the encode of pts as one record of the named
// structure; an MG record has a member slot per point and two absent
// members, its slot tables built before the encode.
func recordEncoder(structure string, pts []model.Point, ntags int, opts encodeOpts) func() []byte {
	switch structure {
	case "rts":
		return func() []byte { return EncodeRTS(pts, ntags, 50, opts) }
	case "irts":
		return func() []byte { return EncodeIRTS(pts, ntags, opts) }
	}
	present := make([]bool, len(pts)+2)
	rows := make([][]float64, len(pts)+2)
	offsets := make([]int64, len(pts)+2)
	for i, p := range pts {
		present[i+1], rows[i+1], offsets[i+1] = true, p.Values, p.TS%60000
	}
	return func() []byte { return EncodeMG(present, rows, offsets, ntags, opts) }
}

// TestEncodeAllocatesPerRecord: a hot record's encode allocates a fixed
// number of times whatever its width and length — its rows and timestamps
// (RTS, IRTS) or reported rows and offsets (MG), its statistics, one tag's
// scratch, the columns, the record, and the sub-bucket block's four — and
// none per tag, per row or per segment.
func TestEncodeAllocatesPerRecord(t *testing.T) {
	want := map[string]float64{"rts": 10, "irts": 10, "mg": 6}
	opts := encodeOpts{subBucketMs: 1000}
	for _, structure := range []string{"rts", "irts", "mg"} {
		for _, ntags := range []int{4, 15} {
			for _, rows := range []int{64, 128, 1024} {
				pts := tdRecord(rows, ntags)
				encode := recordEncoder(structure, pts, ntags, opts)
				got := testing.AllocsPerRun(20, func() { encode() })
				if got != want[structure] {
					t.Errorf("%s record of %d rows, %d tags: %.0f allocations, want %.0f", structure, rows, ntags, got, want[structure])
				}
			}
		}
	}
}

// BenchmarkEncodeRecord encodes a 128-row, 4-tag TD record, the ingest
// flush's unit of work.
func BenchmarkEncodeRecord(b *testing.B) {
	pts := tdRecord(128, 4)
	for _, structure := range []string{"rts", "irts", "mg"} {
		encode := recordEncoder(structure, pts, 4, encodeOpts{subBucketMs: 60000})
		b.Run(structure, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encode()
			}
		})
	}
}
