package tsstore

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"odh/internal/model"
)

// Property tests for the scan pipeline: the walker list, scanIter, the
// parallel scheduler, and the blob-bytes accounting over generated
// inputs. The invariants are ordering, no-dup, no-loss, and that every
// configuration — serial, split, parallel, cached — yields identical
// rows.

// TestWalkerListProperty checks that a scan of an id list is the scans of
// its ids one after another, in list order and at the sum of their costs,
// and that an id the catalog does not know reads nothing at no cost —
// alone, in a list, or with no list at all.
func TestWalkerListProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := newFixture(t, Config{BatchSize: 8}, 0)
	s := f.schema(t, "list", 2)
	var ids []int64
	for i := 0; i < 5; i++ {
		ds := f.source(t, s.ID, i%2 == 0, 10)
		ids = append(ids, ds.ID)
		ts := int64(0)
		for j := rng.Intn(60); j > 0; j-- {
			ts += 10 * int64(1+rng.Intn(3))
			if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(j), float64(i)}}); err != nil {
				t.Fatal(err)
			}
			// Stored records and buffered rows both feed the walks.
			if rng.Intn(30) == 0 {
				if err := f.store.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const unknown = 1 << 40
	opts := ScanOptions{NoCache: true} // every walk decodes, so costs add
	scan := func(list []int64) Iterator {
		it, err := f.store.MultiHistoricalScanOpts(list, math.MinInt64, math.MaxInt64, nil, opts)
		if err != nil {
			t.Fatalf("scan of %v: %v", list, err)
		}
		return it
	}
	for round := 0; round < 100; round++ {
		var list []int64
		var want []model.Point
		var wantBytes int64
		for n := rng.Intn(6); n > 0; n-- {
			if rng.Intn(4) == 0 {
				list = append(list, unknown+int64(rng.Intn(3)))
				continue
			}
			id := ids[rng.Intn(len(ids))]
			one := scan([]int64{id})
			want = append(want, collect(t, one)...)
			wantBytes += one.BlobBytes()
			list = append(list, id)
		}
		it := scan(list)
		if got := collect(t, it); !pointsEqual(got, want) {
			t.Fatalf("round %d: scan of %v returned %d rows, its ids one by one %d", round, list, len(got), len(want))
		}
		if it.BlobBytes() != wantBytes {
			t.Fatalf("round %d: scan of %v cost %d bytes, its ids one by one %d", round, list, it.BlobBytes(), wantBytes)
		}
	}
	it, err := f.store.HistoricalScan(unknown, math.MinInt64, math.MaxInt64, nil)
	if err != nil || len(collect(t, it)) != 0 || it.BlobBytes() != 0 {
		t.Fatalf("scan of an unregistered source: err %v, want no rows at no cost", err)
	}
	res, err := f.store.AggregateHistorical(unknown, AggSpec{T1: math.MinInt64, T2: math.MaxInt64, NTags: 2})
	if err != nil || len(res.Groups) != 0 || res.BlobBytesRead != 0 {
		t.Fatalf("aggregate of an unregistered source = %+v, %v; want no groups", res, err)
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
	it, err := s.MultiHistoricalScanOpts([]int64{source}, t1, t2, nil, opts)
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
// alias the same backing array. Scans lend rows of cached batches, so two
// scans' rows may alias or not depending on the cache; the comparison must
// not depend on which.
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

// tagOf reads one tag of a scan's row: a row holds the tags through the
// last one its scan asked for, and a tag at or past its width is NULL.
func tagOf(vals []float64, tag int) float64 {
	if tag < len(vals) {
		return vals[tag]
	}
	return model.NullValue
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
	preds := []TagPred{{Tag: 0, Lo: 1000, Hi: 2000}}
	scan := func(opts ScanOptions) ([]model.Point, int64) {
		before := f.store.Stats().ZoneSkips
		it, err := f.store.MultiHistoricalScanOpts([]int64{ds.ID}, math.MinInt64, math.MaxInt64, nil, opts, preds...)
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
