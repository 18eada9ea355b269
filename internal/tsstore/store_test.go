package tsstore

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"odh/internal/catalog"
	"odh/internal/compress"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
)

type fixture struct {
	store *Store
	cat   *catalog.Catalog
	page  *pagestore.Store
}

func newFixture(t testing.TB, cfg Config, groupSize int) *fixture {
	t.Helper()
	page, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { page.Close() })
	cat, err := catalog.Open(page, groupSize)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(page, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: st, cat: cat, page: page}
}

func (f *fixture) schema(t testing.TB, name string, ntags int) *model.SchemaType {
	t.Helper()
	tags := make([]model.TagDef, ntags)
	for i := range tags {
		tags[i] = model.TagDef{Name: string(rune('a' + i))}
	}
	s, err := f.cat.CreateSchemaType(name, tags)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (f *fixture) source(t testing.TB, schemaID int64, regular bool, intervalMs int64) *model.DataSource {
	t.Helper()
	ds, err := f.cat.RegisterSource(model.DataSource{SchemaID: schemaID, Regular: regular, IntervalMs: intervalMs})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func collect(t testing.TB, it Iterator) []model.Point {
	t.Helper()
	var out []model.Point
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return out
}

func TestRTSWriteAndHistoricalScan(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "pmu", 3)
	ds := f.source(t, s.ID, true, 20) // 50 Hz regular -> RTS

	const n = 100
	for i := 0; i < n; i++ {
		p := model.Point{Source: ds.ID, TS: int64(1000 + i*20), Values: []float64{float64(i), 50, float64(-i)}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	// 100 points / batch 16 -> 6 flushed batches, 4 points buffered.
	rts, irts, mg := f.store.TreeSizes()
	if rts != 6 || irts != 0 || mg != 0 {
		t.Fatalf("tree sizes = %d/%d/%d, want 6/0/0", rts, irts, mg)
	}

	it, err := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := collect(t, it)
	if len(pts) != n {
		t.Fatalf("scan returned %d points (dirty read must include buffered), want %d", len(pts), n)
	}
	for i, p := range pts {
		if p.TS != int64(1000+i*20) {
			t.Fatalf("point %d ts = %d", i, p.TS)
		}
		if p.Values[0] != float64(i) || p.Values[1] != 50 || p.Values[2] != float64(-i) {
			t.Fatalf("point %d values = %v", i, p.Values)
		}
	}
}

func TestRTSGapSplitsBatch(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 100}, 0)
	s := f.schema(t, "pmu", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 10; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1}})
	}
	// Gap: jump ahead by 5 intervals.
	for i := 0; i < 10; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(1000 + i*10), Values: []float64{2}})
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	rts, _, _ := f.store.TreeSizes()
	if rts != 2 {
		t.Fatalf("gap did not split batch: %d batches", rts)
	}
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	if got := len(collect(t, it)); got != 20 {
		t.Fatalf("scan = %d points, want 20", got)
	}
}

func TestIRTSWriteAndScan(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 32}, 0)
	s := f.schema(t, "vehicle", 2)
	ds := f.source(t, s.ID, false, 100) // irregular 10 Hz -> IRTS

	rng := rand.New(rand.NewSource(4))
	ts := int64(5000)
	var want []int64
	for i := 0; i < 200; i++ {
		ts += int64(50 + rng.Intn(100)) // jittered intervals
		want = append(want, ts)
		if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(i), 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	_, irts, _ := f.store.TreeSizes()
	if irts == 0 {
		t.Fatal("no IRTS batches flushed")
	}
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != 200 {
		t.Fatalf("scan = %d, want 200", len(pts))
	}
	for i, p := range pts {
		if p.TS != want[i] {
			t.Fatalf("ts[%d] = %d, want %d", i, p.TS, want[i])
		}
	}
}

func TestIRTSOutOfOrderSplits(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 100}, 0)
	s := f.schema(t, "v", 1)
	ds := f.source(t, s.ID, false, 100)
	f.store.Write(model.Point{Source: ds.ID, TS: 1000, Values: []float64{1}})
	f.store.Write(model.Point{Source: ds.ID, TS: 2000, Values: []float64{2}})
	f.store.Write(model.Point{Source: ds.ID, TS: 1500, Values: []float64{3}}) // out of order
	f.store.Flush()
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != 3 {
		t.Fatalf("scan = %d points", len(pts))
	}
	// Merge must deliver them in timestamp order despite the split.
	if pts[0].TS != 1000 || pts[1].TS != 1500 || pts[2].TS != 2000 {
		t.Fatalf("order: %d %d %d", pts[0].TS, pts[1].TS, pts[2].TS)
	}
}

// A run that starts at a stored batch's key merges with it even when the
// catalog's statistics for the source count no batch (lost or unreadable):
// the flush skips the tree lookup only on statistics that vouch for it.
func TestIRTSSharedKeyMergesWithoutStats(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 100}, 0)
	s := f.schema(t, "v", 1)
	ds := f.source(t, s.ID, false, 100)
	f.store.Write(model.Point{Source: ds.ID, TS: 1000, Values: []float64{1}})
	f.store.Write(model.Point{Source: ds.ID, TS: 2000, Values: []float64{2}})
	f.store.Flush()
	st := f.cat.Stats(ds.ID)
	if st.BatchCount != 1 || st.PointCount != 2 {
		t.Fatalf("stats after first flush: %+v", st)
	}
	lost := model.SourceStats{BatchCount: -st.BatchCount, PointCount: -st.PointCount, BlobBytes: -st.BlobBytes}
	if err := f.cat.UpdateStats(ds.ID, lost); err != nil {
		t.Fatal(err)
	}
	f.store.Write(model.Point{Source: ds.ID, TS: 1000, Values: []float64{3}}) // a second sample at the stored key
	f.store.Flush()
	// Scans skip a source whose statistics count no batch, so read the
	// record itself.
	blob, err := f.store.irts.Get(keyenc.SourceTime(ds.ID, 1000))
	if err != nil {
		t.Fatal(err)
	}
	_, pts := decodeRecords(ds.ID, []stored{{ts: 1000, blob: blob}})
	if len(pts) != 3 || pts[0].TS != 1000 || pts[1].TS != 1000 || pts[2].TS != 2000 {
		t.Fatalf("record after shared-key flush: %+v", pts)
	}
	if got := pts[0].Values[0] + pts[1].Values[0]; got != 4 {
		t.Fatalf("samples at 1000: %+v", pts[:2])
	}
}

func TestMGWriteAndSliceScan(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "meter", 2)
	var sources []*model.DataSource
	for i := 0; i < 8; i++ {
		sources = append(sources, f.source(t, s.ID, true, 900000)) // 15 min -> MG
	}
	// Two complete rounds: every source reports at both timestamps.
	for round := 0; round < 2; round++ {
		ts := int64(1000000 + round*900000)
		for i, ds := range sources {
			err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(i), float64(round)}})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// 8 sources / group size 4 = 2 groups; 2 timestamps each -> 4 MG records.
	_, _, mg := f.store.TreeSizes()
	if mg != 4 {
		t.Fatalf("mg records = %d, want 4", mg)
	}
	it, err := f.store.SliceScanOpts(s.ID, 1000000, 1000000+1, nil, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pts := collect(t, it)
	if len(pts) != 8 {
		t.Fatalf("slice = %d points, want 8", len(pts))
	}
	seen := map[int64]bool{}
	for _, p := range pts {
		seen[p.Source] = true
		if p.Values[1] != 0 {
			t.Fatalf("wrong round value: %v", p.Values)
		}
	}
	if len(seen) != 8 {
		t.Fatal("slice missed sources")
	}
}

func TestMGPartialRowFlush(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, maxOpenMGRows: 2}, 4)
	s := f.schema(t, "meter", 1)
	var sources []*model.DataSource
	for i := 0; i < 4; i++ {
		sources = append(sources, f.source(t, s.ID, true, 900000))
	}
	// Only source 0 reports across 3 different windows: the open-row cap
	// (2) must force partial flushes rather than unbounded buffering.
	for i := 0; i < 3; i++ {
		f.store.Write(model.Point{Source: sources[0].ID, TS: int64(1000 + i*900000), Values: []float64{float64(i)}})
	}
	if f.store.Stats().MGPartialRows == 0 {
		t.Fatal("no partial rows flushed")
	}
	it, _ := f.store.HistoricalScan(sources[0].ID, 0, math.MaxInt64, nil)
	if got := len(collect(t, it)); got != 3 {
		t.Fatalf("historical scan over partial rows = %d, want 3", got)
	}
}

// TestMGOverflowKeepsRepeatedSamples is the regression for the MG overflow
// path overwriting a stored record with a nil error: a group member that
// reports three times at one timestamp keeps its first sample in the MG
// row and sends the second and third — exact repeats of a timestamp it has
// open, the only samples a first-fit row turns away — to its per-source
// tree, where both land on the key (source, ts). They must merge under it
// like an out-of-order IRTS flush does; the third used to replace the
// second, and the catalog still counted both.
func TestMGOverflowKeepsRepeatedSamples(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "meter", 1)
	a := f.source(t, s.ID, false, 900000) // irregular, 15 min -> MG, IRTS history
	b := f.source(t, s.ID, false, 900000)
	written := []model.Point{
		{Source: a.ID, TS: 1000, Values: []float64{1}},
		{Source: a.ID, TS: 1000, Values: []float64{2}},
		{Source: a.ID, TS: 1000, Values: []float64{4}},
		{Source: b.ID, TS: 1000, Values: []float64{8}},
		{Source: a.ID, TS: 901000, Values: []float64{16}},
		{Source: b.ID, TS: 901000, Values: []float64{32}},
	}
	check := func(when string) {
		t.Helper()
		var sum float64
		for _, ds := range []*model.DataSource{a, b} {
			it, err := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range collect(t, it) {
				sum += p.Values[0]
			}
		}
		if sum != 63 { // distinct powers of two: the sum names the samples present
			t.Fatalf("%s: scans hold sample set %v of 63", when, sum)
		}
		agg, err := f.store.AggregateHistorical(a.ID, AggSpec{T1: 0, T2: math.MaxInt64, NTags: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(agg.Groups) != 1 || agg.Groups[0].Rows != 4 || agg.Groups[0].Sum[0] != 23 {
			t.Fatalf("%s: aggregate over the member = %+v, want 4 rows summing to 23", when, agg.Groups)
		}
		// The member's per-source statistics cover its two exact repeats, in
		// one record; its first sample and its next one are the group's.
		if st := f.cat.Stats(a.ID); st.PointCount != 2 || st.BatchCount != 1 {
			t.Fatalf("%s: member stats = %+v, want 2 points in 1 batch", when, st)
		}
	}
	for _, p := range written {
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	check("buffered")
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
}

func TestMGHistoricalScanSingleSource(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "meter", 1)
	var sources []*model.DataSource
	for i := 0; i < 4; i++ {
		sources = append(sources, f.source(t, s.ID, true, 900000))
	}
	for round := 0; round < 5; round++ {
		ts := int64(1000000 + round*900000)
		for i, ds := range sources {
			f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(i*100 + round)}})
		}
	}
	it, _ := f.store.HistoricalScan(sources[2].ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	for round, p := range pts {
		if p.Source != sources[2].ID || p.Values[0] != float64(200+round) {
			t.Fatalf("round %d: %+v", round, p)
		}
	}
}

func TestNullValuesRoundtrip(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 4}, 0)
	s := f.schema(t, "sparse", 3)
	ds := f.source(t, s.ID, false, 100)
	// Sparse records: like the paper's Observation table, most tags NULL.
	for i := 0; i < 8; i++ {
		vals := []float64{model.NullValue, model.NullValue, model.NullValue}
		vals[i%3] = float64(i)
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 100), Values: vals})
	}
	f.store.Flush()
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != 8 {
		t.Fatalf("got %d", len(pts))
	}
	for i, p := range pts {
		for j, v := range p.Values {
			if j == i%3 {
				if v != float64(i) {
					t.Fatalf("point %d tag %d = %v", i, j, v)
				}
			} else if !model.IsNull(v) {
				t.Fatalf("point %d tag %d should be NULL, got %v", i, j, v)
			}
		}
	}
}

func TestTagProjectionSkipsColumns(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 0)
	s := f.schema(t, "wide", 10)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 16; i++ {
		vals := make([]float64, 10)
		for j := range vals {
			vals[j] = float64(i*10 + j)
		}
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: vals})
	}
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, []int{3})
	pts := collect(t, it)
	if len(pts) != 16 {
		t.Fatalf("got %d", len(pts))
	}
	for i, p := range pts {
		if p.Values[3] != float64(i*10+3) {
			t.Fatalf("selected tag wrong at %d: %v", i, p.Values[3])
		}
		if !model.IsNull(p.Values[0]) || !model.IsNull(p.Values[9]) {
			t.Fatalf("unselected tags decoded: %v", p.Values)
		}
	}
}

func TestTimeRangeFiltering(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 10}, 0)
	s := f.schema(t, "x", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 100; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{float64(i)}})
	}
	// Window [250, 500) cuts across batch boundaries (batches span 100ms).
	it, _ := f.store.HistoricalScan(ds.ID, 250, 500, nil)
	pts := collect(t, it)
	if len(pts) != 25 {
		t.Fatalf("got %d, want 25", len(pts))
	}
	if pts[0].TS != 250 || pts[len(pts)-1].TS != 490 {
		t.Fatalf("range [%d, %d]", pts[0].TS, pts[len(pts)-1].TS)
	}
}

func TestReorganizeMGToRTS(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "meter", 2)
	var sources []*model.DataSource
	for i := 0; i < 4; i++ {
		sources = append(sources, f.source(t, s.ID, true, 900000))
	}
	const rounds = 10
	for round := 0; round < rounds; round++ {
		ts := int64(1000000 + round*900000)
		for i, ds := range sources {
			f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(i), float64(round)}})
		}
	}
	// Reorg works at record granularity: a record is keyed at its first
	// sample, round k's at 1000000+900000k, so a cut at 1000000+6*900000
	// captures rounds 0..5 (6 records).
	cut := int64(1000000 + 6*900000)
	res, err := f.store.Reorganize(s.ID, cut)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 6 || res.Deleted != 6 {
		t.Fatalf("converted %d of %d records read, want 6 of 6", res.Deleted, res.Records)
	}
	if res.RowsMoved != 24 {
		t.Fatalf("moved %d points, want 24", res.RowsMoved)
	}
	rts, _, mg := f.store.TreeSizes()
	if mg != 4 {
		t.Fatalf("mg records after reorg = %d, want 4", mg)
	}
	if rts == 0 {
		t.Fatal("no RTS batches written by reorg")
	}
	// Historical scan must stitch reorged + remaining MG data seamlessly.
	it, _ := f.store.HistoricalScan(sources[1].ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != rounds {
		t.Fatalf("post-reorg scan = %d points, want %d", len(pts), rounds)
	}
	for round, p := range pts {
		if p.Values[1] != float64(round) {
			t.Fatalf("round %d wrong after reorg: %v", round, p.Values)
		}
	}
	// Slice scans must also stitch across the reorganized boundary.
	it2, _ := f.store.SliceScanOpts(s.ID, 0, math.MaxInt64, nil, ScanOptions{})
	if got := len(collect(t, it2)); got != rounds*4 {
		t.Fatalf("slice after reorg = %d, want %d", got, rounds*4)
	}
	// Idempotent: converting the same stripe again is a no-op.
	res2, err := f.store.Reorganize(s.ID, cut)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != (MaintenanceResult{}) {
		t.Fatalf("double reorg: %+v, want nothing read or written", res2)
	}
}

// TestReorganizeConvertsLateRecords is the regression for the reorg
// watermark: a group converted only the stripe between its last upTo and
// the new one, so an MG record written below an earlier call's upTo stayed
// in MG through every later call. Every MG record keyed below upTo
// converts, and a second call plans nothing.
func TestReorganizeConvertsLateRecords(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 2)
	s := f.schema(t, "late", 1)
	members := []*model.DataSource{f.source(t, s.ID, true, 1_000_000), f.source(t, s.ID, true, 1_000_000)}
	round := func(ts int64) {
		t.Helper()
		for i, ds := range members {
			if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mgRecords := func() uint64 { _, _, mg := f.store.TreeSizes(); return mg }
	group := members[0].Group
	round(1_000_000)
	round(3_000_000)
	round(5_000_000)
	if _, err := f.store.ReorganizeGroup(group, 4_000_000); err != nil || mgRecords() != 1 {
		t.Fatalf("first reorganize: %v, %d MG records left, want 1", err, mgRecords())
	}
	round(2_000_000) // late, below the first call's upTo
	res, err := f.store.ReorganizeGroup(group, 10_000_000)
	if err != nil || res.Deleted != 2 || res.RowsMoved != 4 || mgRecords() != 0 {
		t.Fatalf("second reorganize = %+v, %v, %d MG records left; want the late record and the newest converted", res, err, mgRecords())
	}
	if again, err := f.store.ReorganizeGroup(group, 20_000_000); err != nil || again != (MaintenanceResult{}) {
		t.Fatalf("third reorganize = %+v, %v; want nothing read or written", again, err)
	}
	it, err := f.store.SliceScanOpts(s.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, it)); got != 8 {
		t.Fatalf("slice after reorganization = %d rows, want 8", got)
	}
}

func TestIrregularLowFrequencyReorgToIRTS(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 2)
	s := f.schema(t, "weather", 1)
	a := f.source(t, s.ID, false, 1380000) // ~23 min irregular -> MG, reorg -> IRTS
	b := f.source(t, s.ID, false, 1380000)
	rng := rand.New(rand.NewSource(8))
	ts := int64(0)
	for i := 0; i < 6; i++ {
		ts += int64(1000000 + rng.Intn(500000))
		f.store.Write(model.Point{Source: a.ID, TS: ts, Values: []float64{1}})
		f.store.Write(model.Point{Source: b.ID, TS: ts, Values: []float64{2}})
	}
	if _, err := f.store.Reorganize(s.ID, ts+1); err != nil {
		t.Fatal(err)
	}
	_, irts, mg := f.store.TreeSizes()
	if mg != 0 || irts == 0 {
		t.Fatalf("after reorg: irts=%d mg=%d", irts, mg)
	}
	it, _ := f.store.HistoricalScan(a.ID, 0, math.MaxInt64, nil)
	if got := len(collect(t, it)); got != 6 {
		t.Fatalf("scan = %d", got)
	}
}

func TestLossyCompressionBound(t *testing.T) {
	page, _ := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 4096})
	t.Cleanup(func() { page.Close() })
	cat, _ := catalog.Open(page, 0)
	st, _ := Open(page, cat, Config{BatchSize: 64})
	schema, _ := cat.CreateSchemaType("lossy", []model.TagDef{
		{Name: "smooth", Compression: compress.Policy{MaxDev: 0.1}},
	})
	ds, _ := cat.RegisterSource(model.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	want := make([]float64, 256)
	for i := range want {
		want[i] = 100 + 0.01*float64(i) + 0.03*math.Sin(float64(i)/10)
		st.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{want[i]}})
	}
	st.Flush()
	it, _ := st.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	i := 0
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		if math.Abs(p.Values[0]-want[i]) > 0.1+1e-9 {
			t.Fatalf("point %d error %v exceeds bound", i, math.Abs(p.Values[0]-want[i]))
		}
		i++
	}
	if i != 256 {
		t.Fatalf("scanned %d", i)
	}
}

func TestCompressionShrinksBlobBytes(t *testing.T) {
	run := func(cfg Config) int64 {
		f := newFixture(t, cfg, 0)
		s := f.schema(t, "c", 4)
		ds := f.source(t, s.ID, true, 10)
		for i := 0; i < 1024; i++ {
			f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10),
				Values: []float64{100, float64(i) * 0.5, 42, float64(i % 3)}})
		}
		f.store.Flush()
		return int64(f.store.BlobBytesTotal())
	}
	compressed := run(Config{BatchSize: 128})
	raw := run(Config{BatchSize: 128, DisableCompression: true})
	if compressed*3 > raw {
		t.Fatalf("compression too weak: %d vs %d raw", compressed, raw)
	}
}

// TestNegativeSubBucketMsRefused: a negative base width once meant "write
// no sub-bucket blocks", a format no writer produces any more; Open names
// the field instead of quietly picking the default.
func TestNegativeSubBucketMsRefused(t *testing.T) {
	page, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer page.Close()
	cat, err := catalog.Open(page, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(page, cat, Config{SubBucketMs: -1}); err == nil || !strings.Contains(err.Error(), "Config.SubBucketMs") {
		t.Fatalf("Open with SubBucketMs -1 = %v, want an error naming the field", err)
	}
}

func TestWriteValidation(t *testing.T) {
	f := newFixture(t, Config{}, 0)
	s := f.schema(t, "v", 2)
	ds := f.source(t, s.ID, true, 10)
	if err := f.store.Write(model.Point{Source: 9999, TS: 1, Values: []float64{1, 2}}); err == nil {
		t.Fatal("unknown source accepted")
	}
	if err := f.store.Write(model.Point{Source: ds.ID, TS: 1, Values: []float64{1}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	file := pagestore.NewMemFile()
	page, _ := pagestore.Open(file, pagestore.Options{PoolPages: 4096})
	cat, _ := catalog.Open(page, 4)
	st, _ := Open(page, cat, Config{BatchSize: 8})
	schema, _ := cat.CreateSchemaType("p", []model.TagDef{{Name: "v"}})
	ds, _ := cat.RegisterSource(model.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	for i := 0; i < 64; i++ {
		st.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{float64(i)}})
	}
	st.Flush()
	page.Close()

	page2, _ := pagestore.Open(file, pagestore.Options{PoolPages: 4096})
	defer page2.Close()
	cat2, err := catalog.Open(page2, 4)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Open(page2, cat2, Config{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	it, err := st2.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := collect(t, it)
	if len(pts) != 64 {
		t.Fatalf("reopened scan = %d points", len(pts))
	}
	if pts[63].Values[0] != 63 {
		t.Fatalf("values lost: %v", pts[63].Values)
	}
}

func TestBlobBytesReadAccounting(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "io", 2)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 64; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1, 2}})
	}
	f.store.Flush()
	st := f.cat.Stats(ds.ID)
	if st.BlobBytes <= 0 || st.BatchCount != 4 {
		t.Fatalf("stats: %+v", st)
	}
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	collect(t, it)
	if _, ok := it.(*scanIter); !ok {
		t.Fatalf("expected single scanIter, got %T", it)
	}
	if it.BlobBytes() != st.BlobBytes {
		t.Fatalf("BlobBytes %d != stats %d", it.BlobBytes(), st.BlobBytes)
	}
}
