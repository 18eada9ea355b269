package tsstore_test

import (
	"math"
	"testing"
	"time"

	"odh/internal/catalog"
	"odh/internal/iotx"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
)

// The pinned LD stream: a seeded stream of 500 low-frequency stations, each
// sample 0.7–1.3 mean intervals of 23 s after the station's last, written
// in frames of 150 points into groups of 128, then a checkpoint.
const (
	ldSensors = 500
	ldPoints  = 40_000
	ldFrame   = 150
)

// ldStore is the pinned LD stream written into a fresh store.
type ldStore struct {
	st      *tsstore.Store
	page    *pagestore.Store
	schema  *model.SchemaType
	sensors []int64                 // in registration order
	truth   map[int64][]model.Point // the points written, per sensor
}

// ldPinnedStore writes the pinned LD stream into a fresh store opened with
// cfg.
func ldPinnedStore(t *testing.T, cfg tsstore.Config) *ldStore {
	t.Helper()
	page, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { page.Close() })
	cat, err := catalog.Open(page, tsstore.DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tsstore.Open(page, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := iotx.LDSchema(0, 0)
	sc, err := cat.CreateSchemaType(schema.Name, schema.Tags)
	if err != nil {
		t.Fatal(err)
	}
	gen := iotx.NewLDGen(iotx.LDConfig{I: 1, SensorUnit: ldSensors, MeanIntervalMs: 23_000, Duration: 10_000 * time.Hour, Seed: 1 + 7919})
	var srcs []model.DataSource
	for _, id := range gen.SensorIDs() {
		srcs = append(srcs, model.DataSource{ID: id, SchemaID: sc.ID, IntervalMs: 23_000})
	}
	if _, err := cat.RegisterSources(srcs); err != nil {
		t.Fatal(err)
	}
	truth := map[int64][]model.Point{}
	batch := make([]model.Point, 0, ldFrame)
	for n := 0; n < ldPoints; n++ {
		p, _ := gen.Next()
		truth[p.Source] = append(truth[p.Source], p.Clone())
		if batch = append(batch, p); len(batch) == ldFrame || n == ldPoints-1 {
			if err := st.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return &ldStore{st: st, page: page, schema: sc, sensors: gen.SensorIDs(), truth: truth}
}

// TestLDIngestPinned pins what LD ingest writes. A member that samples
// twice inside one group window joins the group's next row instead of
// writing a one-point per-source record, so no per-source record is written
// at all, and the MG records' count and ValueBlob bytes are exact: they
// move only with the MG ingest rule or the blob format, which must update
// them.
func TestLDIngestPinned(t *testing.T) {
	const (
		// The MG records the stream flushes and their ValueBlob bytes.
		wantRecords = 379
		wantBytes   = 1_815_273
	)
	st := ldPinnedStore(t, tsstore.Config{}).st
	rts, irts, mg := st.TreeSizes()
	bytes := st.BlobBytesTotal()
	perPoint := float64(bytes) / ldPoints
	t.Logf("%d MG records, %d ValueBlob bytes (%.1f a point)", mg, bytes, perPoint)
	if rts+irts != 0 {
		t.Errorf("%d per-source records written, want none", rts+irts)
	}
	if mg != wantRecords || bytes != wantBytes {
		t.Errorf("%d MG records of %d ValueBlob bytes, pinned %d of %d", mg, bytes, wantRecords, wantBytes)
	}
	if perPoint > 50 {
		t.Errorf("%.1f B of ValueBlob a point, want at most 50", perPoint)
	}
}

// TestLDMemberScanPinned pins what reading one sensor of the pinned LD
// stream costs. Each of the sensor's points sits in its own MG record, so
// its history scan decodes exactly that many records and materialises one
// row of each — not every member's row, ≈ 108 a record here — and drops
// every record of the group without the sensor on its first page: the
// buffer pool's lookups are pinned too, and reading the dropped records'
// overflow chains would add to them. With the cache on and off alike,
// since a member's row is never cached under its group's record. A
// whole-group scan over the same records through the same cache then
// returns every row: were a member's row cached as the record, the group
// scan would be served that one row and come back short with a nil error.
//
// The lookups, re-derived: the walk takes three steps. The first seeks
// the two-level MG tree — the root, the leaf it names and that leaf's copy
// (3) — and the two later steps seek inside that copy of the unchanged
// tree, which costs nothing; moving on to each of the next two leaves
// reads the current leaf's next pointer and copies the next (2 + 2). Of
// the 15 dropped records, the 14 that overflow cost their first page, the
// one stored inline in its leaf nothing (14). Each of the 82 records kept
// (4.1 to 5.7 KB) is read to its end for a scan of every tag, its first
// page and then the second (2 each, 164): 185 in all. A scan of
// AirTemperature alone (tag 1, what LQ2, LQ3 and agg_recent read) stops
// each kept record at the end of that column, about 1.8 KB in, which the
// first page holds (1 each, 82): 103.
//
// The values decoded (Stats.DecodedValues) are pinned too, with the cache
// off. A member's row decodes the member's offset and those in front of it,
// and of each tag it holds the column's values through its own; a tag it
// leaves NULL costs nothing. Before, a member's decode materialised every
// reported offset and ran each wanted column's codec through the values in
// front of the member whether it held the tag or not: 34 563 for every tag
// and 14 092 for tag 1, against 15 607 and 10 244 now.
func TestLDMemberScanPinned(t *testing.T) {
	const (
		sensorIndex     = 200    // slot 72 of the second group
		wantPoints      = 82     // its points, each in its own MG record
		wantDropped     = 15     // the 13 of the group's 95 records without it, two met again by a later step's lookback
		wantLookups     = 185    // pool lookups of a scan of every tag: see above
		wantLookupsTag1 = 103    // ... and of a scan of tag 1
		wantDecoded     = 15_607 // values decoded by a scan of every tag, the cache off
		wantDecodedTag1 = 10_244 // ... and by a scan of tag 1
	)
	ld := ldPinnedStore(t, tsstore.Config{BlobCacheBytes: 8 << 20})
	sensor := ld.sensors[sensorIndex]
	want := ld.truth[sensor]
	for _, scan := range []struct {
		wantTags []int
		lookups  int64
		decoded  int64
	}{{nil, wantLookups, wantDecoded}, {[]int{1}, wantLookupsTag1, wantDecodedTag1}} {
		for _, opts := range []tsstore.ScanOptions{{}, {NoCache: true}} {
			before, was := ld.page.Stats(), ld.st.Stats().DecodedValues
			it, err := ld.st.HistoricalScanOpts(sensor, math.MinInt64, math.MaxInt64, scan.wantTags, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, it)
			if scan.wantTags == nil && !samePoints(got, want) || len(got) != len(want) {
				t.Fatalf("NoCache=%v, tags %v: sensor %d scan returns %d rows, want its %d points", opts.NoCache, scan.wantTags, sensor, len(got), len(want))
			}
			for i, p := range got {
				if p.TS != want[i].TS || math.Float64bits(p.Values[1]) != math.Float64bits(want[i].Values[1]) {
					t.Fatalf("NoCache=%v, tags %v: row %d is %+v, want %+v", opts.NoCache, scan.wantTags, i, p, want[i])
				}
			}
			after := ld.page.Stats()
			lookups := after.Hits + after.Misses - before.Hits - before.Misses
			c := tsstore.ScanWalkCounts(it)
			decoded := ld.st.Stats().DecodedValues - was
			t.Logf("NoCache=%v, tags %v: %d points; %+v, %d pool lookups, %d values decoded", opts.NoCache, scan.wantTags, len(want), c, lookups, decoded)
			if len(want) != wantPoints || c.Decoded != wantPoints || c.DecodedRows != wantPoints || c.Dropped != wantDropped || lookups != scan.lookups {
				t.Errorf("NoCache=%v, tags %v: %d points, walk %+v, %d pool lookups; pinned %d records decoded for %d rows, %d dropped, %d lookups",
					opts.NoCache, scan.wantTags, len(want), c, lookups, wantPoints, wantPoints, wantDropped, scan.lookups)
			}
			if opts.NoCache && decoded != scan.decoded {
				t.Errorf("tags %v: %d values decoded, pinned %d", scan.wantTags, decoded, scan.decoded)
			}
		}
	}
	it, err := ld.st.SliceScanOpts(ld.schema.ID, math.MinInt64, math.MaxInt64, nil, tsstore.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bySensor := map[int64][]model.Point{}
	for _, p := range drain(t, it) {
		bySensor[p.Source] = append(bySensor[p.Source], p)
	}
	for id, pts := range ld.truth {
		if !samePoints(bySensor[id], pts) {
			t.Fatalf("whole-group scan after the member scans: sensor %d has %d rows, want %d", id, len(bySensor[id]), len(pts))
		}
	}
}

func drain(t *testing.T, it tsstore.Iterator) []model.Point {
	t.Helper()
	var out []model.Point
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		out = append(out, p)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// samePoints compares time-ordered rows cell by cell, NULL equal to NULL.
func samePoints(a, b []model.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Source != b[i].Source || a[i].TS != b[i].TS || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j, v := range a[i].Values {
			if math.Float64bits(v) != math.Float64bits(b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}
