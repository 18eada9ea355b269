package tsstore

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"odh/internal/model"
)

// Property tests for the scan pipeline: concatIter, scanIter, the
// parallel scheduler, and the blob-bytes accounting over generated
// inputs. The invariants are ordering, no-dup, no-loss, and that every
// configuration — serial, split, parallel, cached — yields identical
// rows.

// genSortedPoints builds n ts-sorted points for one source.
func genSortedPoints(rng *rand.Rand, source int64, n int) []model.Point {
	pts := make([]model.Point, n)
	ts := int64(rng.Intn(50))
	for i := range pts {
		ts += int64(rng.Intn(20)) // duplicates allowed (step 0)
		pts[i] = model.Point{Source: source, TS: ts, Values: []float64{float64(i), float64(source)}}
	}
	return pts
}

// sliceIterAdapter iterates a materialized point slice, accruing the
// estimated blob bytes of each point it serves.
type sliceIterAdapter struct {
	points   []model.Point
	i        int
	perPoint int64
	accrued  int64
}

// newSliceIter wraps buffered points, sizing the per-point byte estimate
// from the row width.
func newSliceIter(points []model.Point) *sliceIterAdapter {
	it := &sliceIterAdapter{points: points}
	if len(points) > 0 {
		it.perPoint = pointBlobBytes(len(points[0].Values))
	}
	return it
}

func (it *sliceIterAdapter) Next() (model.Point, bool) {
	if it.i >= len(it.points) {
		return model.Point{}, false
	}
	p := it.points[it.i]
	it.i++
	it.accrued += it.perPoint
	return p, true
}

func (it *sliceIterAdapter) Err() error       { return nil }
func (it *sliceIterAdapter) BlobBytes() int64 { return it.accrued }

// TestConcatIterProperty checks concatenation order and byte accounting,
// including that buffered-point adapters now report non-zero estimates
// (the sliceIterAdapter fix) and that an empty scan's cost is truly zero.
func TestConcatIterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		k := 1 + rng.Intn(5)
		var inputs []Iterator
		var want []model.Point
		var wantBytes int64
		for i := 0; i < k; i++ {
			pts := genSortedPoints(rng, int64(i+1), rng.Intn(20))
			want = append(want, pts...)
			it := newSliceIter(pts)
			if len(pts) > 0 && it.perPoint == 0 {
				t.Fatal("sliceIterAdapter must carry a non-zero per-point estimate")
			}
			wantBytes += it.perPoint * int64(len(pts))
			inputs = append(inputs, it)
		}
		c := &concatIter{iters: inputs}
		got := collect(t, c)
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("round %d: concat diverged (%d vs %d rows)", round, len(got), len(want))
		}
		if c.BlobBytes() != wantBytes {
			t.Fatalf("round %d: BlobBytes = %d, want %d", round, c.BlobBytes(), wantBytes)
		}
	}
	if (emptyIter{}).BlobBytes() != 0 {
		t.Fatal("emptyIter serves nothing; its cost must be zero")
	}
}

// TestBatchIterProperty writes randomized (partly out-of-order) histories
// and checks every window scan against ground truth, across serial,
// range-split parallel, and cached configurations.
func TestBatchIterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 20; round++ {
		cfg := Config{BatchSize: 4 + rng.Intn(12), BlobCacheBytes: 1 << 20}
		f := newFixture(t, cfg, 0)
		s := f.schema(t, "prop", 2)
		regular := rng.Intn(2) == 0
		ds := f.source(t, s.ID, regular, 10)

		// Distinct timestamps by construction; irregular sources get a
		// perturbed write order so buffers split on out-of-order arrivals.
		n := 50 + rng.Intn(200)
		stamps := make([]int64, n)
		ts := int64(0)
		for i := range stamps {
			if regular {
				ts += 10
				if rng.Intn(20) == 0 {
					ts += 10 * int64(1+rng.Intn(5)) // gap splits the batch
				}
			} else {
				ts += int64(1 + rng.Intn(25))
			}
			stamps[i] = ts
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		if !regular {
			for i := 0; i < n/10; i++ {
				a, b := rng.Intn(n), rng.Intn(n)
				order[a], order[b] = order[b], order[a]
			}
		}
		var truth []model.Point
		for _, i := range order {
			p := model.Point{Source: ds.ID, TS: stamps[i], Values: []float64{float64(i % 5), float64(i)}}
			truth = append(truth, p.Clone())
			if err := f.store.Write(p); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(40) == 0 {
				if err := f.store.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Leave some points buffered half the time (dirty-read path).
		if rng.Intn(2) == 0 {
			if err := f.store.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		sort.SliceStable(truth, func(i, j int) bool { return truth[i].TS < truth[j].TS })

		for q := 0; q < 10; q++ {
			t1 := int64(rng.Intn(int(ts)+1)) - 10
			t2 := t1 + int64(rng.Intn(int(ts)+100))
			var want []model.Point
			for _, p := range truth {
				if p.TS >= t1 && p.TS < t2 {
					want = append(want, p)
				}
			}
			serial := scanWindow(t, f.store, ds.ID, t1, t2, ScanOptions{NoCache: true})
			if len(serial) != len(want) {
				t.Fatalf("round %d q %d: serial %d rows, want %d", round, q, len(serial), len(want))
			}
			for i := range serial {
				if serial[i].TS != want[i].TS || serial[i].Values[1] != want[i].Values[1] {
					t.Fatalf("round %d q %d: row %d = (%d,%v), want (%d,%v)", round, q, i, serial[i].TS, serial[i].Values, want[i].TS, want[i].Values)
				}
			}
			par := scanWindow(t, f.store, ds.ID, t1, t2, ScanOptions{Workers: 4, NoCache: true})
			if !pointsEqual(serial, par) {
				t.Fatalf("round %d q %d: parallel scan diverged", round, q)
			}
			cached := scanWindow(t, f.store, ds.ID, t1, t2, ScanOptions{})
			if !pointsEqual(serial, cached) {
				t.Fatalf("round %d q %d: cached scan diverged", round, q)
			}
			both := scanWindow(t, f.store, ds.ID, t1, t2, ScanOptions{Workers: 4})
			if !pointsEqual(serial, both) {
				t.Fatalf("round %d q %d: parallel+cached scan diverged", round, q)
			}
		}
	}
}

func scanWindow(t *testing.T, s *Store, source, t1, t2 int64, opts ScanOptions) []model.Point {
	t.Helper()
	it, err := s.HistoricalScanOpts(source, t1, t2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return collect(t, it)
}

func pointsEqual(a, b []model.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Source != b[i].Source || a[i].TS != b[i].TS || !valuesEqual(a[i].Values, b[i].Values) {
			return false
		}
	}
	return true
}

// valuesEqual compares rows cell-wise with NULL (NaN) equal to NULL —
// unlike reflect.DeepEqual, which only accepts NaN cells when both rows
// alias the same backing array (scans copy rows out of shared cache
// batches, so aliasing never happens).
func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(model.IsNull(a[i]) && model.IsNull(b[i])) {
			return false
		}
	}
	return true
}

// TestSplitScanRangeProperty checks the range splitter partitions any
// window exactly: contiguous, covering, and honoring the k bound.
func TestSplitScanRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 500; round++ {
		t1 := int64(rng.Intn(10_000)) - 5000
		t2 := t1 + int64(rng.Intn(10_000))
		stats := model.SourceStats{
			PointCount: int64(rng.Intn(3)), // sometimes zero: no split
			FirstTS:    t1 + int64(rng.Intn(2000)) - 1000,
			LastTS:     t2 + int64(rng.Intn(2000)) - 1000,
		}
		k := 1 + rng.Intn(8)
		ranges := splitScanRange(t1, t2, stats, k)
		if len(ranges) < 1 || len(ranges) > k {
			t.Fatalf("round %d: %d ranges for k=%d", round, len(ranges), k)
		}
		if ranges[0].t1 != t1 || ranges[len(ranges)-1].t2 != t2 {
			t.Fatalf("round %d: ranges %v do not cover [%d,%d)", round, ranges, t1, t2)
		}
		for i := 1; i < len(ranges); i++ {
			if ranges[i].t1 != ranges[i-1].t2 {
				t.Fatalf("round %d: gap between %v and %v", round, ranges[i-1], ranges[i])
			}
		}
	}
	// Extreme bounds must not overflow.
	full := splitScanRange(math.MinInt64, math.MaxInt64, model.SourceStats{PointCount: 10, FirstTS: 0, LastTS: 1 << 40}, 4)
	if full[0].t1 != math.MinInt64 || full[len(full)-1].t2 != math.MaxInt64 {
		t.Fatalf("extreme split lost coverage: %v", full)
	}
}

// TestMultiAndSliceScanParallelEquivalence checks the multi-source and
// slice paths return identical rows serial vs parallel vs cached,
// including MG groups with a still-unreorganized stripe.
func TestMultiAndSliceScanParallelEquivalence(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, maxOpenMGRows: 3, BlobCacheBytes: 1 << 20}, 4)
	s := f.schema(t, "mixed", 2)
	var srcs []*model.DataSource
	for i := 0; i < 2; i++ {
		srcs = append(srcs, f.source(t, s.ID, true, 10)) // RTS
	}
	srcs = append(srcs, f.source(t, s.ID, false, 10)) // IRTS
	for i := 0; i < 4; i++ {
		srcs = append(srcs, f.source(t, s.ID, true, 10_000)) // MG group
	}
	for i := 0; i < 300; i++ {
		for _, ds := range srcs {
			step := ds.IntervalMs
			p := model.Point{Source: ds.ID, TS: int64(i+1)*step + int64(ds.GroupSlot), Values: []float64{float64(i % 9), float64(ds.ID)}}
			if err := f.store.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reorganize part of the MG history so per-source batches and MG
	// records coexist.
	if _, err := f.store.Reorganize(s.ID, 150*10_000); err != nil {
		t.Fatal(err)
	}

	ids := make([]int64, len(srcs))
	for i, ds := range srcs {
		ids[i] = ds.ID
	}
	windows := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{100 * 10, 2000 * 10},
		{140 * 10_000, 200 * 10_000},
	}
	for _, w := range windows {
		for _, opts := range []ScanOptions{{Workers: 4}, {Workers: 4, NoCache: true}, {NoCache: true}, {}} {
			multiRef, err := f.store.MultiHistoricalScanOpts(ids, w[0], w[1], nil, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			multiGot, err := f.store.MultiHistoricalScanOpts(ids, w[0], w[1], nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !pointsEqual(collect(t, multiRef), collect(t, multiGot)) {
				t.Fatalf("multi scan diverged for window %v opts %+v", w, opts)
			}
			sliceRef, err := f.store.SliceScanOpts(s.ID, w[0], w[1], nil, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sliceGot, err := f.store.SliceScanOpts(s.ID, w[0], w[1], nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !pointsEqual(collect(t, sliceRef), collect(t, sliceGot)) {
				t.Fatalf("slice scan diverged for window %v opts %+v", w, opts)
			}
		}
	}
	// Row scans ignore Workers: nothing fanned out.
	if st := f.store.Stats(); st.ParallelScans != 0 || st.ParallelParts != 0 {
		t.Fatalf("a row scan moved the fan-out counters: %+v", st)
	}
}

// TestZoneSkipParityWithCache verifies zone-map skipping behaves
// identically on cache hits (replayed zones) and raw reads, both in rows
// and in the ZoneSkips counter.
func TestZoneSkipParityWithCache(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 1 << 20}, 0)
	s := f.schema(t, "zones", 2)
	ds := f.source(t, s.ID, true, 10)
	// Two value regimes so some blobs are skippable.
	for i := 0; i < 256; i++ {
		v := float64(i % 8)
		if i >= 128 {
			v += 1000
		}
		if err := f.store.Write(model.Point{Source: ds.ID, TS: int64(i+1) * 10, Values: []float64{v, float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	ranges := []TagRange{{Tag: 0, Lo: 1000, Hi: 2000}}
	scan := func(opts ScanOptions) ([]model.Point, int64) {
		before := f.store.Stats().ZoneSkips
		it, err := f.store.HistoricalScanOpts(ds.ID, math.MinInt64, math.MaxInt64, nil, opts, ranges...)
		if err != nil {
			t.Fatal(err)
		}
		pts := collect(t, it)
		return pts, f.store.Stats().ZoneSkips - before
	}
	rawPts, rawSkip := scan(ScanOptions{NoCache: true})
	if rawSkip == 0 {
		t.Fatal("expected zone-map skips")
	}
	scan(ScanOptions{}) // warm the cache
	hitPts, hitSkip := scan(ScanOptions{})
	if !pointsEqual(rawPts, hitPts) {
		t.Fatal("cached zone-filtered scan diverged")
	}
	if hitSkip != rawSkip {
		t.Fatalf("cache-hit skips = %d, raw skips = %d", hitSkip, rawSkip)
	}
	if st := f.store.Stats(); st.BlobCacheHits == 0 {
		t.Fatalf("zone scan did not hit the cache: %+v", st)
	}
}
