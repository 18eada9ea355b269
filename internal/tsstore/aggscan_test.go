package tsstore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"odh/internal/keyenc"
	"odh/internal/model"
)

// refFold aggregates scan output with the plain decode-and-group
// semantics the executor uses — the reference the summary fold must match
// bit for bit. Values in these tests are multiples of 1/4 with bounded
// magnitude, so float sums are exact and independent of association
// order (a blob fold adds per-blob subtotals, not individual values).
func refFold(points []model.Point, spec AggSpec) map[aggKey]*AggGroup {
	ntags := spec.NTags
	tags := spec.WantTags
	if tags == nil {
		tags = make([]int, ntags)
		for i := range tags {
			tags[i] = i
		}
	}
	out := make(map[aggKey]*AggGroup)
	for _, p := range points {
		if p.TS < spec.T1 || p.TS >= spec.T2 {
			continue
		}
		if !matchPreds(p.Values, spec.Preds) {
			continue
		}
		var k aggKey
		if spec.ByID {
			k.id = p.Source
		}
		if spec.BucketMs > 0 {
			k.bucket = model.BucketFloor(p.TS, spec.BucketMs)
		}
		g, ok := out[k]
		if !ok {
			g = &AggGroup{ID: k.id, Bucket: k.bucket,
				NonNull: make([]int64, ntags), Sum: make([]float64, ntags),
				Min: make([]float64, ntags), Max: make([]float64, ntags)}
			for i := range g.Min {
				g.Min[i] = math.Inf(1)
				g.Max[i] = math.Inf(-1)
			}
			out[k] = g
		}
		g.Rows++
		for _, tag := range tags {
			if tag < 0 || tag >= len(p.Values) {
				continue
			}
			v := p.Values[tag]
			if model.IsNull(v) {
				continue
			}
			g.NonNull[tag]++
			g.Sum[tag] += v
			if v < g.Min[tag] {
				g.Min[tag] = v
			}
			if v > g.Max[tag] {
				g.Max[tag] = v
			}
		}
	}
	return out
}

// compareAgg checks got against the reference bit for bit.
func compareAgg(t *testing.T, label string, got *AggResult, want map[aggKey]*AggGroup, spec AggSpec) {
	t.Helper()
	if len(got.Groups) != len(want) {
		t.Fatalf("%s: got %d groups, want %d", label, len(got.Groups), len(want))
	}
	for _, g := range got.Groups {
		w, ok := want[aggKey{g.ID, g.Bucket}]
		if !ok {
			t.Fatalf("%s: unexpected group id=%d bucket=%d", label, g.ID, g.Bucket)
		}
		if g.Rows != w.Rows {
			t.Fatalf("%s: group id=%d bucket=%d rows=%d want %d", label, g.ID, g.Bucket, g.Rows, w.Rows)
		}
		for tag := range w.NonNull {
			if g.NonNull[tag] != w.NonNull[tag] {
				t.Fatalf("%s: group id=%d bucket=%d tag %d nonNull=%d want %d",
					label, g.ID, g.Bucket, tag, g.NonNull[tag], w.NonNull[tag])
			}
			if math.Float64bits(g.Sum[tag]) != math.Float64bits(w.Sum[tag]) {
				t.Fatalf("%s: group id=%d bucket=%d tag %d sum=%v want %v (bits differ)",
					label, g.ID, g.Bucket, tag, g.Sum[tag], w.Sum[tag])
			}
			if math.Float64bits(g.Min[tag]) != math.Float64bits(w.Min[tag]) ||
				math.Float64bits(g.Max[tag]) != math.Float64bits(w.Max[tag]) {
				t.Fatalf("%s: group id=%d bucket=%d tag %d min/max=%v/%v want %v/%v",
					label, g.ID, g.Bucket, tag, g.Min[tag], g.Max[tag], w.Min[tag], w.Max[tag])
			}
		}
	}
}

// sameAggResult asserts two results are identical including group order
// (serial and parallel, cached and uncached runs must agree exactly).
func sameAggResult(t *testing.T, label string, a, b *AggResult) {
	t.Helper()
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("%s: group count %d vs %d", label, len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.ID != gb.ID || ga.Bucket != gb.Bucket || ga.Rows != gb.Rows {
			t.Fatalf("%s: group %d header differs: %+v vs %+v", label, i, ga, gb)
		}
		for tag := range ga.NonNull {
			if ga.NonNull[tag] != gb.NonNull[tag] ||
				math.Float64bits(ga.Sum[tag]) != math.Float64bits(gb.Sum[tag]) ||
				math.Float64bits(ga.Min[tag]) != math.Float64bits(gb.Min[tag]) ||
				math.Float64bits(ga.Max[tag]) != math.Float64bits(gb.Max[tag]) {
				t.Fatalf("%s: group %d tag %d differs", label, i, tag)
			}
		}
	}
}

// TestAggregatePropertyVsDecodeReference drives randomized stores (NaN
// and NULL values, NULL gaps, duplicate timestamps, empty tag columns)
// through flushes and reorganizations and asserts summary-folded
// aggregates match the decode-and-group reference bit for bit, across
// {serial, parallel} x {cache off, cache on}.
func TestAggregatePropertyVsDecodeReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			runAggTrial(t, seed)
		})
	}
}

func runAggTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Sub-bucket base varies per trial: the default (only the 60 000 ms
	// bucket list entry is a multiple of it), a width no entry is a
	// multiple of, and two bases that make several widths sub-bucket
	// foldable.
	subMs := []int64{0, 13, 100, 1000}[rng.Intn(4)]
	f := newFixture(t, Config{
		BatchSize:      4 + rng.Intn(12),
		maxOpenMGRows:  1 + rng.Intn(4),
		BlobCacheBytes: 1 << 20,
		SubBucketMs:    subMs,
	}, 2+rng.Intn(3))
	ntags := 1 + rng.Intn(3)
	schema := f.schema(t, "agg", ntags)
	emptyTag := -1
	if ntags > 1 && rng.Intn(2) == 0 {
		emptyTag = rng.Intn(ntags) // this tag stays all-NULL
	}

	type srcState struct {
		ds     *model.DataSource
		nextTS int64
	}
	var sources []*srcState
	var ids []int64
	for i := 0; i < 5; i++ {
		var ds *model.DataSource
		switch i % 3 {
		case 0:
			ds = f.source(t, schema.ID, true, 10) // RTS
		case 1:
			ds = f.source(t, schema.ID, false, 25) // IRTS
		default:
			ds = f.source(t, schema.ID, true, 5000) // MG
		}
		sources = append(sources, &srcState{ds: ds, nextTS: 1_000_000})
		ids = append(ids, ds.ID)
	}

	var maxTS int64 = 1_000_000
	for op := 0; op < 500; op++ {
		switch rng.Intn(25) {
		case 0:
			if err := f.store.Flush(); err != nil {
				t.Fatal(err)
			}
			continue
		case 1:
			cut := 1_000_000 + rng.Int63n(maxTS-1_000_000+1)
			if _, err := f.store.Reorganize(schema.ID, cut); err != nil {
				t.Fatal(err)
			}
			continue
		}
		st := sources[rng.Intn(len(sources))]
		vals := make([]float64, ntags)
		for j := range vals {
			if j == emptyTag || rng.Intn(5) == 0 {
				vals[j] = model.NullValue // NULL gap (stored as NaN)
			} else {
				vals[j] = math.Round(rng.Float64()*1000) / 4 // exact in float64
			}
		}
		ts := st.nextTS
		if st.ds.IngestStructure() == model.IRTS && rng.Intn(10) == 0 {
			// Duplicate timestamp: two points share one instant.
			ts -= st.ds.IntervalMs
			if ts < 1_000_000 {
				ts = 1_000_000
			}
		}
		if err := f.store.Write(model.Point{Source: st.ds.ID, TS: ts, Values: vals}); err != nil {
			t.Fatal(err)
		}
		if ts > maxTS {
			maxTS = ts
		}
		if st.ds.Regular && st.ds.IngestStructure() == model.RTS {
			st.nextTS += st.ds.IntervalMs
		} else {
			st.nextTS += st.ds.IntervalMs/2 + rng.Int63n(st.ds.IntervalMs)
		}
	}

	cfgs := []ScanOptions{
		{Workers: 1},
		{Workers: 1, NoCache: true},
		{Workers: 8},
		{Workers: 8, NoCache: true},
	}
	buckets := []int64{0, 7, 100, 1000, 60_000}
	for trial := 0; trial < 8; trial++ {
		t1 := int64(1_000_000) + rng.Int63n(maxTS-999_999)
		t2 := t1 + rng.Int63n(maxTS-t1+2)
		if trial == 0 {
			t1, t2 = math.MinInt64/2, math.MaxInt64/2
		}
		spec := AggSpec{T1: t1, T2: t2, NTags: ntags,
			BucketMs: buckets[rng.Intn(len(buckets))],
			ByID:     rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			tag := rng.Intn(ntags)
			lo := math.Round(rng.Float64()*500) / 4
			hi := lo + math.Round(rng.Float64()*500)/4
			spec.Preds = []TagPred{{Tag: tag, Lo: lo, Hi: hi,
				LoStrict: rng.Intn(2) == 0, HiStrict: rng.Intn(2) == 0}}
		}
		if rng.Intn(3) == 0 {
			// Narrow decode set; must still cover predicate tags.
			want := map[int]bool{rng.Intn(ntags): true}
			for _, p := range spec.Preds {
				want[p.Tag] = true
			}
			for tag := range want {
				spec.WantTags = append(spec.WantTags, tag)
			}
		}

		// Historical per source, multi over all ids, slice over the schema.
		for _, st := range sources {
			it, err := f.store.HistoricalScan(st.ds.ID, spec.T1, spec.T2, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := refFold(collect(t, it), spec)
			var first *AggResult
			for ci, opts := range cfgs {
				s := spec
				s.Opts = opts
				got, err := f.store.AggregateHistorical(st.ds.ID, s)
				if err != nil {
					t.Fatal(err)
				}
				compareAgg(t, "historical", got, want, s)
				if ci == 0 {
					first = got
				} else {
					sameAggResult(t, "historical-configs", first, got)
				}
			}
		}
		{
			var all []model.Point
			for _, st := range sources {
				it, err := f.store.HistoricalScan(st.ds.ID, spec.T1, spec.T2, nil)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, collect(t, it)...)
			}
			want := refFold(all, spec)
			for _, opts := range cfgs {
				s := spec
				s.Opts = opts
				got, err := f.store.AggregateMulti(ids, s)
				if err != nil {
					t.Fatal(err)
				}
				compareAgg(t, "multi", got, want, s)
			}
		}
		{
			it, err := f.store.SliceScanOpts(schema.ID, spec.T1, spec.T2, nil, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := refFold(collect(t, it), spec)
			for _, opts := range cfgs {
				s := spec
				s.Opts = opts
				got, err := f.store.AggregateSlice(schema.ID, s)
				if err != nil {
					t.Fatal(err)
				}
				compareAgg(t, "slice", got, want, s)
			}
		}
	}
}

// TestAggregateIgnoresWorkers pins that an aggregate's answer does not
// depend on its worker count or on the cache, bit for bit and in group
// order. Its values are not exact quarters, so float sums round: a
// fan-out that split one source's rows into parts would add their
// subtotals in another association and move the last bits. Each source
// (RTS, IRTS, MG member) is one walk, and owners merge in owner order.
func TestAggregateIgnoresWorkers(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, maxOpenMGRows: 3, BlobCacheBytes: 1 << 20}, 2)
	schema := f.schema(t, "workers", 2)
	srcs := []*model.DataSource{
		f.source(t, schema.ID, true, 10),   // RTS
		f.source(t, schema.ID, false, 25),  // IRTS
		f.source(t, schema.ID, true, 5000), // MG
		f.source(t, schema.ID, true, 5000), // MG, the same group
	}
	var ids []int64
	for _, ds := range srcs {
		ids = append(ids, ds.ID)
	}
	rng := rand.New(rand.NewSource(48))
	const base, n = 1_000_000, 1250
	for i := 0; i < n; i++ {
		if i == n-40 {
			// The rest stays buffered: dirty reads fold too.
			if err := f.store.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for _, ds := range srcs {
			vals := []float64{rng.Float64() * 1e3, rng.Float64()*1e3 - 500}
			if rng.Intn(7) == 0 {
				vals[1] = model.NullValue
			}
			ts := base + int64(i)*ds.IntervalMs + int64(ds.GroupSlot)
			if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: vals}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Part of the MG history moves to its members' own records.
	if _, err := f.store.Reorganize(schema.ID, base+n/3*5000); err != nil {
		t.Fatal(err)
	}
	maxTS := int64(base + n*5000)

	var cfgs []ScanOptions
	for _, w := range []int{1, 2, 8} {
		for _, noCache := range []bool{false, true} {
			cfgs = append(cfgs, ScanOptions{Workers: w, NoCache: noCache})
		}
	}
	run := func(label string, spec AggSpec, agg func(AggSpec) (*AggResult, error)) {
		t.Helper()
		var first *AggResult
		for _, opts := range cfgs {
			s := spec
			s.Opts = opts
			got, err := agg(s)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = got
				continue
			}
			sameAggResult(t, fmt.Sprintf("%s %+v workers=%d nocache=%v", label, spec, opts.Workers, opts.NoCache), first, got)
		}
	}
	for trial := 0; trial < 12; trial++ {
		t1 := base + rng.Int63n(maxTS-base)
		t2 := t1 + rng.Int63n(maxTS-t1+1)
		if trial == 0 {
			t1, t2 = math.MinInt64/2, math.MaxInt64/2
		}
		spec := AggSpec{T1: t1, T2: t2, NTags: 2,
			BucketMs: []int64{0, 0, 7, 1000, 60_000}[rng.Intn(5)],
			ByID:     rng.Intn(2) == 0,
		}
		for _, ds := range srcs {
			run("historical", spec, func(s AggSpec) (*AggResult, error) { return f.store.AggregateHistorical(ds.ID, s) })
		}
		run("multi", spec, func(s AggSpec) (*AggResult, error) { return f.store.AggregateMulti(ids, s) })
		run("slice", spec, func(s AggSpec) (*AggResult, error) { return f.store.AggregateSlice(schema.ID, s) })
	}
}

// TestAggregateFoldsWithoutDecoding checks the whole point of the
// summary path: a wide-window aggregate over flushed summary-format blobs
// answers from headers, decoding (nearly) nothing.
func TestAggregateFoldsWithoutDecoding(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 32}, 0)
	schema := f.schema(t, "m", 2)
	ds := f.source(t, schema.ID, true, 10)
	for i := 0; i < 32*64; i++ {
		p := model.Point{Source: ds.ID, TS: int64(1000 + i*10), Values: []float64{float64(i % 97), float64(i % 13)}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := f.store.AggregateHistorical(ds.ID, AggSpec{
		T1: math.MinInt64 / 2, T2: math.MaxInt64 / 2, NTags: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Rows != 32*64 {
		t.Fatalf("unexpected result: %+v", res.Groups)
	}
	if res.SummaryHits != 64 {
		t.Fatalf("SummaryHits = %d, want 64", res.SummaryHits)
	}
	if res.BlobBytesRead != 0 {
		t.Fatalf("BlobBytesRead = %d, want 0 (all folds)", res.BlobBytesRead)
	}
	if res.BytesNotDecoded == 0 {
		t.Fatalf("BytesNotDecoded = 0, want > 0")
	}
	st := f.store.Stats()
	if st.SummaryHits != 64 || st.BytesNotDecoded != res.BytesNotDecoded {
		t.Fatalf("store stats not plumbed: %+v", st)
	}

	// A window clipping the first and last point decodes only the two
	// edge blobs; the 62 interior blobs still fold from summaries.
	lastTS := int64(1000 + (32*64-1)*10)
	res, err = f.store.AggregateHistorical(ds.ID, AggSpec{T1: 1000 + 5, T2: lastTS, NTags: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SummaryHits != 62 {
		t.Fatalf("boundary SummaryHits = %d, want 62", res.SummaryHits)
	}
	if res.BlobBytesRead == 0 {
		t.Fatalf("boundary blobs were not decoded")
	}
}

// writeOldFormat ingests 128 one-tag points at 10 ms as eight 16-point RTS
// records, then rewrites each in place as an older writer left it: without
// its sub-bucket block or, presummary, without its header summary too. No
// writer produces either any more, so the records are stripped by hand;
// UpgradeBlobs is what still reads them.
func writeOldFormat(t *testing.T, cfg Config, presummary bool) (*fixture, *model.DataSource, []model.Point) {
	t.Helper()
	cfg.BatchSize = 16
	f := newFixture(t, cfg, 0)
	ds := f.source(t, f.schema(t, "old", 1).ID, true, 10)
	var pts []model.Point
	for i := 0; i < 16*8; i++ {
		p := model.Point{Source: ds.ID, TS: int64(1000 + i*10), Values: []float64{float64(i)}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := readRange(&home{tree: f.store.rts, id: ds.ID}, math.MinInt64, math.MaxInt64)
	if err != nil || len(recs) != 8 {
		t.Fatalf("read %d records (%v), want 8", len(recs), err)
	}
	for _, r := range recs {
		h, _ := parseBlobHeader(r.blob)
		if !h.hasSummary() || h.subOff == 0 {
			t.Fatalf("record at %d was written without a summary or sub-bucket block", r.ts)
		}
		cut, flags := h.subOff, r.blob[0]&^flagSubBuckets
		if presummary {
			cut, flags = h.zoneOff+16*h.ntags, flags&^flagSummaries
		}
		old := append(append([]byte{flags}, r.blob[1:cut]...), h.payload()...)
		if err := f.store.rts.Put(keyenc.SourceTime(ds.ID, r.ts), old); err != nil {
			t.Fatal(err)
		}
	}
	return f, ds, pts
}

// upgradeAndCheck runs the explicit upgrade over the eight old-format
// records of writeOldFormat and asserts its contract: UpgradeBlobs
// rewrites every record once; after it the first aggregate folds from
// headers and equals the decode-and-group reference over the points
// written, scans return exactly those points, fsck is clean and a second
// pass rewrites nothing.
func upgradeAndCheck(t *testing.T, s *Store, source int64, pts []model.Point, spec AggSpec) *AggResult {
	t.Helper()
	const records = 8
	up, err := s.UpgradeBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if up.Records != records || up.Rewritten != records {
		t.Fatalf("UpgradeBlobs = %+v, want %d of %d records rewritten", up, records, records)
	}
	after, err := s.AggregateHistorical(source, spec)
	if err != nil {
		t.Fatal(err)
	}
	if after.BlobBytesRead != 0 {
		t.Fatalf("first aggregate after upgrade decoded %d bytes, want 0", after.BlobBytesRead)
	}
	compareAgg(t, "after-upgrade", after, refFold(pts, spec), spec)
	it, err := s.HistoricalScan(source, spec.T1, spec.T2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := collect(t, it); !pointsEqual(rows, pts) {
		t.Fatalf("scan after upgrade returned %d points, want the %d written", len(rows), len(pts))
	}
	if checked, corrupt, stale, err := s.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 || checked != records {
		t.Fatalf("fsck after upgrade: checked=%d corrupt=%v stale=%v err=%v", checked, corrupt, stale, err)
	}
	if up, err = s.UpgradeBlobs(); err != nil || up.Rewritten != 0 || up.Records != records {
		t.Fatalf("second UpgradeBlobs = %+v err=%v, want 0 rewritten", up, err)
	}
	return after
}

// TestLegacyBlobSummaryUpgrade verifies pre-summary records, which a
// served store does not hold, are named by fsck as corrupt until
// UpgradeBlobs rewrites them from their decode, and fold from their
// headers afterwards.
func TestLegacyBlobSummaryUpgrade(t *testing.T) {
	f, ds, pts := writeOldFormat(t, Config{BlobCacheBytes: 1 << 20}, true)
	checked, corrupt, _, err := f.store.VerifyBlobs()
	if err != nil || checked != 8 || len(corrupt) != 8 {
		t.Fatalf("fsck over pre-summary records: checked=%d corrupt=%v err=%v, want all 8 named", checked, corrupt, err)
	}
	spec := AggSpec{T1: math.MinInt64 / 2, T2: math.MaxInt64 / 2, NTags: 1}
	if after := upgradeAndCheck(t, f.store, ds.ID, pts, spec); after.SummaryHits != 8 {
		t.Fatalf("aggregate after upgrade SummaryHits = %d, want 8", after.SummaryHits)
	}
}

// TestAggregateSubBucketFolds checks the sub-bucket path end to end: a
// TIME_BUCKET aggregate whose width is a multiple of the store's base
// width folds blobs that straddle bucket edges from their per-sub-bucket
// mini-summaries, decoding nothing — the case the whole-blob summary can
// never answer.
func TestAggregateSubBucketFolds(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 32, SubBucketMs: 40}, 0)
	schema := f.schema(t, "sb", 2)
	ds := f.source(t, schema.ID, true, 10)
	for i := 0; i < 32*64; i++ {
		p := model.Point{Source: ds.ID, TS: int64(1000 + i*10), Values: []float64{float64(i % 97), float64(i % 13)}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every 320 ms blob straddles several 40 ms buckets, so the whole-blob
	// summary cannot answer; every record must fold from sub-summaries.
	for _, w := range []int64{40, 120} {
		spec := AggSpec{T1: math.MinInt64 / 2, T2: math.MaxInt64 / 2, NTags: 2, BucketMs: w}
		it, err := f.store.HistoricalScan(ds.ID, spec.T1, spec.T2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refFold(collect(t, it), spec)
		res, err := f.store.AggregateHistorical(ds.ID, spec)
		if err != nil {
			t.Fatal(err)
		}
		compareAgg(t, "sub-bucket", res, want, spec)
		if res.SubBucketFolds != 64 {
			t.Fatalf("w=%d: SubBucketFolds = %d, want 64", w, res.SubBucketFolds)
		}
		if res.SummaryHits != 0 || res.BytesNotDecoded != 0 {
			t.Fatalf("w=%d: sub-folds leaked into summary counters: %+v", w, res)
		}
		if res.BlobBytesRead != 0 {
			t.Fatalf("w=%d: BlobBytesRead = %d, want 0 (all sub-folds)", w, res.BlobBytesRead)
		}
		if res.SubBucketBytesNotDecoded == 0 {
			t.Fatalf("w=%d: SubBucketBytesNotDecoded = 0, want > 0", w)
		}
	}
	st := f.store.Stats()
	if st.SubBucketFolds != 128 || st.SubBucketBytesNotDecoded == 0 {
		t.Fatalf("store stats not plumbed: %+v", st)
	}

	// A width that is not a multiple of the base cannot use sub-summaries:
	// every straddling blob decodes.
	res, err := f.store.AggregateHistorical(ds.ID, AggSpec{
		T1: math.MinInt64 / 2, T2: math.MaxInt64 / 2, NTags: 2, BucketMs: 70})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubBucketFolds != 0 || res.BlobBytesRead == 0 {
		t.Fatalf("non-multiple width must decode: %+v", res)
	}

	// Unaligned window edges cut the first and last blob mid-sub-bucket:
	// those two decode, the 62 interior blobs still sub-fold.
	lastTS := int64(1000 + (32*64-1)*10)
	res, err = f.store.AggregateHistorical(ds.ID, AggSpec{T1: 1005, T2: lastTS, NTags: 2, BucketMs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubBucketFolds != 62 {
		t.Fatalf("unaligned edges: SubBucketFolds = %d, want 62", res.SubBucketFolds)
	}
	if res.BlobBytesRead == 0 {
		t.Fatalf("unaligned edge blobs were not decoded")
	}

	// Base-aligned window edges keep even the cut blobs folding.
	spec := AggSpec{T1: 1040, T2: 21400, NTags: 2, BucketMs: 40}
	it, err := f.store.HistoricalScan(ds.ID, spec.T1, spec.T2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refFold(collect(t, it), spec)
	res, err = f.store.AggregateHistorical(ds.ID, spec)
	if err != nil {
		t.Fatal(err)
	}
	compareAgg(t, "aligned-cut", res, want, spec)
	if res.SubBucketFolds != 64 || res.BlobBytesRead != 0 {
		t.Fatalf("aligned cuts should fold every blob: %+v", res)
	}
}

// TestLegacyBlobSubBucketUpgrade verifies records written before
// sub-bucket summaries existed decode under a bucketed aggregate — every
// time, cache or not — until UpgradeBlobs gives them the block, then fold
// from it.
func TestLegacyBlobSubBucketUpgrade(t *testing.T) {
	f, ds, pts := writeOldFormat(t, Config{BlobCacheBytes: 1 << 20, SubBucketMs: 40}, false)
	spec := AggSpec{T1: math.MinInt64 / 2, T2: math.MaxInt64 / 2, NTags: 1, BucketMs: 40}
	for i := 0; i < 2; i++ {
		res, err := f.store.AggregateHistorical(ds.ID, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.SummaryHits != 0 || res.SubBucketFolds != 0 || i == 0 && res.BlobBytesRead == 0 {
			t.Fatalf("records without a sub-bucket block must take the decode path every time: %+v", res)
		}
		compareAgg(t, "before-upgrade", res, refFold(pts, spec), spec)
	}
	if after := upgradeAndCheck(t, f.store, ds.ID, pts, spec); after.SubBucketFolds != 8 {
		t.Fatalf("aggregate after upgrade SubBucketFolds = %d, want 8", after.SubBucketFolds)
	}
}

// TestSubFoldAligned pins the alignment rules that make a sub-bucket fold
// provably exact: width a multiple of the base, and any window edge that
// cuts the blob landing on the base grid (negatives included).
func TestSubFoldAligned(t *testing.T) {
	sum := &blobSummary{firstTS: 100, lastTS: 199}
	neg := &blobSummary{firstTS: -100, lastTS: -1}
	for _, tc := range []struct {
		name    string
		sum     *blobSummary
		t1, t2  int64
		base, w int64
		want    bool
	}{
		{"disabled-base", sum, 0, 1000, 0, 80, false},
		{"non-multiple-width", sum, 0, 1000, 30, 80, false},
		{"no-cut", sum, 100, 200, 40, 80, true},
		{"no-bucketing", sum, 100, 200, 40, 0, true},
		{"t1-cut-aligned", sum, 120, 1000, 40, 80, true},
		{"t1-cut-unaligned", sum, 130, 1000, 40, 80, false},
		{"t2-cut-aligned", sum, 0, 160, 40, 80, true},
		{"t2-cut-unaligned", sum, 0, 170, 40, 80, false},
		{"negative-aligned", neg, -80, 0, 40, 80, true},
		{"negative-unaligned", neg, -70, 0, 40, 80, false},
	} {
		sp := &aggSpecEx{spec: &AggSpec{BucketMs: tc.w}}
		if got := subFoldAligned(tc.sum, tc.t1, tc.t2, tc.base, sp); got != tc.want {
			t.Fatalf("%s: subFoldAligned = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBucketFloorMatchesTimeBucket pins the fold's bucket arithmetic to
// the executor's TIME_BUCKET semantics, negatives included.
func TestBucketFloorMatchesTimeBucket(t *testing.T) {
	for _, tc := range []struct{ ts, w, want int64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 10}, {-1, 10, -10}, {-10, 10, -10}, {-11, 10, -20},
		{1_000_007, 1000, 1_000_000},
	} {
		if got := model.BucketFloor(tc.ts, tc.w); got != tc.want {
			t.Fatalf("BucketFloor(%d, %d) = %d, want %d", tc.ts, tc.w, got, tc.want)
		}
	}
}

// denseFixture builds the 200 000-point dense history (one RTS source at
// 10 ms, four tags, 128-point batches, all flushed) whose byte and fold
// counts are pinned exactly below and in tier_test.go. The counts are
// deterministic, so any drift is a change to the blob format, the fold
// eligibility rules or the byte accounting — update the constants only with
// such a change. It returns the source and the end of the history.
func denseFixture(t testing.TB, cfg Config) (*fixture, *model.DataSource, int64) {
	t.Helper()
	const nPts = 200_000
	cfg.BatchSize = 128
	f := newFixture(t, cfg, 0)
	ds := f.source(t, f.schema(t, "scan", 4).ID, true, 10)
	for i := 0; i < nPts; i++ {
		p := model.Point{Source: ds.ID, TS: int64(i+1) * 10,
			Values: []float64{float64(i % 97), float64(i), 3.5, float64(i % 11)}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, ds, int64(nPts+1) * 10
}

// TestAggregateSubBucketBytesPinned pins what the sub-bucket block buys on
// the shape the whole-blob summary cannot answer: TIME_BUCKET widths below
// a blob's 1280 ms span over a window cut off the bucket grid. With 1 s
// sub-buckets only the two window-edge blobs decode and every straddler
// folds from its mini-summaries; without the block every straddler decodes.
// A 1 ms base is how a store writes no block: a blob's 1280 ms span would
// need more sub-buckets than the writer's cap, so it skips the block.
func TestAggregateSubBucketBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		subMs                           int64
		decoded, swept, subFolds, folds int64
	}{
		{"sub-1000ms", 1000, 1982, 3157436, 1962, 1162},
		{"no-sub-block", 1, 1525454, 2428332, 0, 1162},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, ds, end := denseFixture(t, Config{SubBucketMs: tc.subMs})
			var decoded int64
			for _, spec := range []AggSpec{
				{BucketMs: 1000, WantTags: []int{0, 1}},
				{BucketMs: 5000, WantTags: []int{1, 2}},
			} {
				spec.T1, spec.T2, spec.NTags = 15, end-5, 4
				res, err := f.store.AggregateHistorical(ds.ID, spec)
				if err != nil {
					t.Fatal(err)
				}
				decoded += res.BlobBytesRead
			}
			st := f.store.Stats()
			swept := decoded + st.BytesNotDecoded + st.SubBucketBytesNotDecoded
			if decoded != tc.decoded || swept != tc.swept || st.SubBucketFolds != tc.subFolds || st.SummaryHits != tc.folds {
				t.Fatalf("decoded=%d swept=%d subFolds=%d folds=%d, want %d %d %d %d",
					decoded, swept, st.SubBucketFolds, st.SummaryHits, tc.decoded, tc.swept, tc.subFolds, tc.folds)
			}
		})
	}
}

// TestOffGridAggregateMaterialisesNoBlock: an aggregate whose window edges
// fall off the sub-bucket grid cannot fold the records it cuts from their
// blocks, so it decodes them without materialising a block first — it
// allocates less than one block weighs, where the same aggregate on the
// grid folds the record from its block — and answers exactly as the
// row-by-row reference does.
func TestOffGridAggregateMaterialisesNoBlock(t *testing.T) {
	const ntags, base = 16, 2
	f := newFixture(t, Config{BatchSize: 128, SubBucketMs: base}, 0)
	ds := f.source(t, f.schema(t, "wide", ntags).ID, false, 8)
	var truth []model.Point
	for j := 0; j < 4*128; j++ {
		vals := make([]float64, ntags)
		for tag := range vals {
			vals[tag] = float64((j*(tag+3))%97) / 4
		}
		p := model.Point{Source: ds.ID, TS: int64(j) * 8, Values: vals}
		truth = append(truth, p.Clone())
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each record spans 1,016 ms: 509 two-millisecond buckets of 16 tags.
	blockBytes := uint64(509 * ntags * 4 * 8)
	aggregate := func(t1, t2 int64) (*AggResult, uint64) {
		spec := AggSpec{T1: t1, T2: t2, NTags: ntags, BucketMs: 4 * base, Opts: ScanOptions{NoCache: true}}
		least := uint64(math.MaxUint64)
		var res *AggResult
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := f.store.AggregateHistorical(ds.ID, spec)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			res, least = r, min(least, after.TotalAlloc-before.TotalAlloc)
		}
		compareAgg(t, fmt.Sprintf("[%d,%d)", t1, t2), res, refFold(truth, spec), spec)
		return res, least
	}
	// Both edges inside the first record: off the grid it decodes, on the
	// grid it folds from the block.
	off, offBytes := aggregate(501, 613)
	if off.SubBucketFolds != 0 || offBytes >= blockBytes {
		t.Fatalf("off-grid aggregate: %d sub-bucket folds, %d bytes allocated, want none and under one block's %d", off.SubBucketFolds, offBytes, blockBytes)
	}
	on, onBytes := aggregate(504, 616)
	if on.SubBucketFolds != 1 || onBytes < blockBytes {
		t.Fatalf("on-grid aggregate: %d sub-bucket folds, %d bytes allocated, want 1 and at least a block's %d", on.SubBucketFolds, onBytes, blockBytes)
	}
}

// TestPredOutsideWantTagsFiltersExactly: a predicate on a tag the spec does
// not aggregate filters the same rows whichever way a record folds. Ten
// 16-row records hold tag 1 = 1 but one row of one record, where it is 0:
// that record cannot be proven from its summary and decodes, the other nine
// fold. The decode must read tag 1 although WantTags names tag 0 alone —
// without it every row of the decoded record reads tag 1 as NULL and drops.
func TestPredOutsideWantTagsFiltersExactly(t *testing.T) {
	const batch, records = 16, 10
	f := newFixture(t, Config{BatchSize: batch, BlobCacheBytes: 1 << 20}, 0)
	s := f.schema(t, "pred", 3)
	src := f.source(t, s.ID, true, 10)
	pts := make([]model.Point, batch*records)
	for i := range pts {
		pts[i] = model.Point{Source: src.ID, TS: int64(i) * 10, Values: []float64{float64(i), 1, float64(i % 3)}}
	}
	pts[5*batch+3].Values[1] = 0
	if err := f.store.WriteBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	preds := []TagPred{{Tag: 1, Lo: 0.5, Hi: math.Inf(1)}}
	for _, opts := range []ScanOptions{{}, {NoCache: true}, {Workers: 4}} {
		aggregate := func(wantTags []int, slice bool) *AggResult {
			t.Helper()
			spec := AggSpec{T1: math.MinInt64, T2: math.MaxInt64, NTags: 3, WantTags: wantTags, Preds: preds, Opts: opts}
			res, err := f.store.AggregateHistorical(src.ID, spec)
			if slice {
				res, err = f.store.AggregateSlice(s.ID, spec)
			}
			if err != nil || len(res.Groups) != 1 {
				t.Fatalf("opts %+v, want %v: %+v, %v", opts, wantTags, res, err)
			}
			return res
		}
		for _, slice := range []bool{false, true} {
			full := aggregate(nil, slice)
			if g := full.Groups[0]; g.Rows != int64(len(pts)-1) || g.NonNull[0] != g.Rows {
				t.Fatalf("opts %+v: the full selection counts %d rows, want %d", opts, g.Rows, len(pts)-1)
			}
			for _, want := range [][]int{{0}, {0, 1}, {2, 0}} {
				got := aggregate(want, slice)
				g, w := got.Groups[0], full.Groups[0]
				if g.Rows != w.Rows || g.NonNull[0] != w.NonNull[0] || g.Sum[0] != w.Sum[0] || g.Min[0] != w.Min[0] || g.Max[0] != w.Max[0] {
					t.Fatalf("opts %+v, slice %v, want %v: %+v, the full selection %+v", opts, slice, want, g, w)
				}
			}
		}
	}
}

// TestAggWalkTags: an aggregate decodes the tags it folds and the tags its
// predicates name, every tag for a nil selection, and no tag for an empty
// one (COUNT(*)), which must not widen to every tag.
func TestAggWalkTags(t *testing.T) {
	pred := func(tag int) TagPred { return TagPred{Tag: tag, Lo: math.Inf(-1), Hi: math.Inf(1)} }
	for _, tc := range []struct {
		want  []int
		preds []TagPred
		walk  []int
	}{
		{nil, []TagPred{pred(1)}, nil},
		{[]int{}, nil, []int{}},
		{[]int{}, []TagPred{pred(2)}, []int{2}},
		{[]int{0, 0, 5}, []TagPred{pred(1), pred(0), pred(7)}, []int{0, 1}},
	} {
		sp := prepAggSpec(&AggSpec{NTags: 3, WantTags: tc.want, Preds: tc.preds})
		if (sp.walkTags == nil) != (tc.walk == nil) || !slices.Equal(sp.walkTags, tc.walk) {
			t.Fatalf("WantTags %v, Preds %v: walks %v, want %v", tc.want, tc.preds, sp.walkTags, tc.walk)
		}
	}
}

// TestAggregateMeetsBufferedRowsInTimeOrder: an MG row a member has not
// completed stays buffered while the later, complete rows are stored, so
// the group's buffer holds rows on both sides of its stored records. An
// aggregate meets its groups in the order a scan hands their rows out —
// time order — so where a walk cuts its steps, which moves with the stored
// records' sizes, cannot reorder them. The buffered rows used to fold as
// one record at the first of them: the last bucket came second.
func TestAggregateMeetsBufferedRowsInTimeOrder(t *testing.T) {
	const step = 10_000 // a low rate: the sources ingest through MG
	f := newFixture(t, Config{BatchSize: 8}, 2)
	s := f.schema(t, "lag", 1)
	a, b := f.source(t, s.ID, true, step), f.source(t, s.ID, true, step)
	if a.Group == 0 || a.Group != b.Group {
		t.Fatalf("sources %+v and %+v share no MG group", a, b)
	}
	write := func(ds *model.DataSource, ts int64) {
		t.Helper()
		if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(ts)}}); err != nil {
			t.Fatal(err)
		}
	}
	var want []int64
	for ts := int64(step); ts <= 11*step; ts += step {
		want = append(want, ts)
		write(a, ts)
		if ts > step && ts < 11*step {
			write(b, ts) // complete: stored at once
		}
	}
	for _, buffered := range []bool{true, false} {
		if !buffered {
			if err := f.store.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := f.store.AggregateSlice(s.ID, AggSpec{T1: 0, T2: 100 * step, NTags: 1, BucketMs: step})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, g := range res.Groups {
			got = append(got, g.Bucket)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("buffered %v: groups in order %v, want %v", buffered, got, want)
		}
	}
}
