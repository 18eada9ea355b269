package tsstore

import (
	"math"
	"reflect"
	"testing"

	"odh/internal/model"
)

// fillSource writes n regular points and flushes, returning the written
// ground truth.
func fillSource(t *testing.T, f *fixture, ds *model.DataSource, n int) []model.Point {
	t.Helper()
	var truth []model.Point
	for i := 0; i < n; i++ {
		p := model.Point{Source: ds.ID, TS: int64(i+1) * ds.IntervalMs, Values: []float64{float64(i % 7), float64(i)}}
		truth = append(truth, p.Clone())
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	return truth
}

func scanAll(t *testing.T, s *Store, source int64, opts ScanOptions, preds ...TagPred) []model.Point {
	t.Helper()
	it, err := s.MultiHistoricalScanOpts([]int64{source}, math.MinInt64, math.MaxInt64, nil, opts, preds...)
	if err != nil {
		t.Fatal(err)
	}
	return collect(t, it)
}

// TestBlobCacheHitsAndEquivalence pins the cache's basic contract: the
// second scan hits, saves bytes, and returns exactly the first scan's
// rows.
func TestBlobCacheHitsAndEquivalence(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 1 << 20}, 0)
	s := f.schema(t, "cache", 2)
	ds := f.source(t, s.ID, true, 10)
	truth := fillSource(t, f, ds, 200)

	cold := scanAll(t, f.store, ds.ID, ScanOptions{})
	st := f.store.Stats()
	if st.BlobCacheHits != 0 || st.BlobCacheMisses == 0 || st.BlobCacheEntries == 0 {
		t.Fatalf("after cold scan: %+v", st)
	}
	warm := scanAll(t, f.store, ds.ID, ScanOptions{})
	st = f.store.Stats()
	if st.BlobCacheHits == 0 || st.BlobCacheBytesSaved == 0 {
		t.Fatalf("warm scan did not hit: %+v", st)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm scan rows differ from cold scan")
	}
	if !reflect.DeepEqual(cold, truth) {
		t.Fatalf("scan rows differ from written points: got %d want %d", len(cold), len(truth))
	}
	// NoCache bypasses entirely and still returns the same rows.
	raw := scanAll(t, f.store, ds.ID, ScanOptions{NoCache: true})
	if !reflect.DeepEqual(cold, raw) {
		t.Fatal("NoCache scan rows differ")
	}
}

// TestBlobCacheInvalidation covers the write-side invalidation hooks:
// flush-merge (MG), reorganization, retention, and coalescing must all
// drop stale decodes so cached scans equal uncached ones.
func TestBlobCacheInvalidation(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, maxOpenMGRows: 2, BlobCacheBytes: 1 << 20}, 4)
	s := f.schema(t, "inv", 2)
	// MG group of 4 low-frequency sources.
	var mgs []*model.DataSource
	for i := 0; i < 4; i++ {
		mgs = append(mgs, f.source(t, s.ID, true, 10_000))
	}
	rts := f.source(t, s.ID, true, 10)

	write := func(ds *model.DataSource, ts int64, v float64) {
		t.Helper()
		if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{v, -v}}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 1; w <= 6; w++ {
		for _, ds := range mgs {
			write(ds, int64(w)*10_000+int64(ds.GroupSlot), float64(w))
		}
	}
	for i := 0; i < 100; i++ {
		write(rts, int64(i+1)*10, float64(i))
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		for _, ds := range append(append([]*model.DataSource{}, mgs...), rts) {
			cached := scanAll(t, f.store, ds.ID, ScanOptions{})
			raw := scanAll(t, f.store, ds.ID, ScanOptions{NoCache: true})
			if !reflect.DeepEqual(cached, raw) {
				t.Fatalf("%s: source %d cached scan diverged (%d vs %d rows)", stage, ds.ID, len(cached), len(raw))
			}
		}
	}
	check("warmup")

	// Late MG arrival merges into an already-flushed record in place.
	write(mgs[0], 3*10_000+999, 42)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("mg merge")

	// Reorganize moves the MG stripe into per-source batches.
	if _, err := f.store.Reorganize(s.ID, 5*10_000); err != nil {
		t.Fatal(err)
	}
	check("reorganize")

	// Coalesce rewrites fragmented batches.
	if _, err := f.store.Coalesce(s.ID); err != nil {
		t.Fatal(err)
	}
	check("coalesce")

	// Retention drops aged batches.
	if _, err := f.store.DropBefore(s.ID, 400); err != nil {
		t.Fatal(err)
	}
	check("retention")

	if st := f.store.Stats(); st.BlobCacheInvalidations == 0 {
		t.Fatal("maintenance passes performed no invalidations")
	}
}

// TestBlobCacheEviction pins the byte budget: a cache far smaller than
// the working set must evict and never exceed its budget.
func TestBlobCacheEviction(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 4096}, 0)
	s := f.schema(t, "evict", 4)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 500; i++ {
		p := model.Point{Source: ds.ID, TS: int64(i+1) * 10, Values: []float64{float64(i), 1, 2, 3}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	scanAll(t, f.store, ds.ID, ScanOptions{})
	st := f.store.Stats()
	if st.BlobCacheEvictions == 0 {
		t.Fatalf("expected evictions with a 4 KiB budget: %+v", st)
	}
	if st.BlobCacheSizeBytes > 4096 {
		t.Fatalf("cache exceeded its budget: %d > 4096", st.BlobCacheSizeBytes)
	}
}

// TestBlobCacheStaleInsertDropped drives the version-slot protocol
// directly: an insert whose version was read (by the missing get) before
// an invalidation must be dropped.
func TestBlobCacheStaleInsertDropped(t *testing.T) {
	c := newBlobCache(1<<20, new(Stats))
	bk := blobKey{tree: cacheTreeRTS, source: 7, ts: 100}
	batch := &DecodedBatch{Timestamps: []int64{100}, Rows: [][]float64{{1}}}

	_, ver := c.get(bk, "*") // the miss under the latch, with the byte copy
	c.invalidateKey(bk)      // writer overwrote the blob between copy and insert
	c.put(bk, "*", ver, batch, blobHeader{}, 64)
	e, ver := c.get(bk, "*")
	if e != nil {
		t.Fatal("stale insert was served")
	}
	// A fresh version inserts fine.
	c.put(bk, "*", ver, batch, blobHeader{}, 64)
	if e, _ := c.get(bk, "*"); e == nil {
		t.Fatal("fresh insert missing")
	}
	// Invalidation removes the live entry too.
	c.invalidateKey(bk)
	if e, _ := c.get(bk, "*"); e != nil {
		t.Fatal("entry survived invalidation")
	}
}

// TestBlobCacheLeafCopySnapshotRace replays the stale-cache race the
// version guard closes: a walker step copies its records, a writer then
// overwrites one of them (an in-place MG row merge during ordinary
// ingest) and invalidates the key, and only then does the reader decode
// its — now stale — copy and offer it to the cache.
// The insert must be dropped: the reader itself may serve the old bytes
// (dirty-read isolation), but later cached scans must see the new ones.
func TestBlobCacheLeafCopySnapshotRace(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, maxOpenMGRows: 8, BlobCacheBytes: 1 << 20}, 4)
	s := f.schema(t, "leafrace", 2)
	var mgs []*model.DataSource
	for i := 0; i < 4; i++ {
		mgs = append(mgs, f.source(t, s.ID, true, 10_000))
	}
	// Three complete windows; each flushes an MG record on completion.
	for w := 1; w <= 3; w++ {
		for _, ds := range mgs {
			p := model.Point{Source: ds.ID, TS: int64(w)*10_000 + int64(ds.GroupSlot), Values: []float64{float64(w), -float64(w)}}
			if err := f.store.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	group := mgs[0].Group

	// The reader's first step copies every record (and reads their cache
	// versions) now — before the overwrite below; records decode lazily.
	l := f.store.newWalkerList(1, math.MinInt64, math.MaxInt64, nil, ScanOptions{})
	l.groupWalker(group, nil)
	stale := &scanIter{ws: l.ws}
	if _, ok := stale.Next(); !ok {
		t.Fatal(stale.Err())
	}

	// Overwrite window 2's record in place: a duplicate-timestamp arrival
	// for member 0 replaces the stored value and invalidates the key.
	p := model.Point{Source: mgs[0].ID, TS: 2*10_000 + int64(mgs[0].GroupSlot), Values: []float64{99, -99}}
	if err := f.store.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}

	// Drain the stale reader: it decodes old bytes from its copy and
	// offers them to the cache; the version check must reject the insert.
	for {
		if _, ok := stale.Next(); !ok {
			break
		}
	}
	if err := stale.Err(); err != nil {
		t.Fatal(err)
	}

	for _, ds := range mgs {
		cached := scanAll(t, f.store, ds.ID, ScanOptions{})
		raw := scanAll(t, f.store, ds.ID, ScanOptions{NoCache: true})
		if !reflect.DeepEqual(cached, raw) {
			t.Fatalf("source %d: stale decode was cached (%v vs %v)", ds.ID, cached, raw)
		}
	}
}

// TestBlobCacheBytesSavedExcludesZoneSkips pins the BytesSaved
// accounting: a hit whose entry is zone-skipped saved nothing (the raw
// path would not have read the blob either) and must not be credited.
func TestBlobCacheBytesSavedExcludesZoneSkips(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 1 << 20}, 0)
	s := f.schema(t, "saved", 2)
	ds := f.source(t, s.ID, true, 10)
	fillSource(t, f, ds, 200) // tag 0 values in [0, 6]

	scanAll(t, f.store, ds.ID, ScanOptions{}) // warm: all misses
	base := f.store.Stats()

	// Every hit is excluded by the pushed tag range, so nothing is saved.
	out := scanAll(t, f.store, ds.ID, ScanOptions{}, TagPred{Tag: 0, Lo: 1000, Hi: 2000})
	st := f.store.Stats()
	if len(out) != 0 {
		t.Fatalf("range [1000,2000] matched %d rows", len(out))
	}
	if st.BlobCacheHits == base.BlobCacheHits {
		t.Fatal("filtered scan did not hit the cache")
	}
	if st.BlobCacheBytesSaved != base.BlobCacheBytesSaved {
		t.Fatalf("zone-skipped hits credited BytesSaved: %d -> %d", base.BlobCacheBytesSaved, st.BlobCacheBytesSaved)
	}

	// Served hits are credited.
	scanAll(t, f.store, ds.ID, ScanOptions{})
	if st = f.store.Stats(); st.BlobCacheBytesSaved <= base.BlobCacheBytesSaved {
		t.Fatalf("served hits not credited: %d -> %d", base.BlobCacheBytesSaved, st.BlobCacheBytesSaved)
	}
}

// TestTagsSig pins the cache variant canonicalization.
func TestTagsSig(t *testing.T) {
	if tagsSig(nil) != "*" {
		t.Fatalf("nil = %q", tagsSig(nil))
	}
	if tagsSig([]int{}) == "*" {
		t.Fatal("empty selection must differ from full decode")
	}
	if tagsSig([]int{2, 0, 1}) != tagsSig([]int{0, 1, 2, 2}) {
		t.Fatal("order/duplicates must not change the signature")
	}
	if tagsSig([]int{0, 1}) == tagsSig([]int{0, 2}) {
		t.Fatal("different selections must differ")
	}
}

// TestBlobCacheWantTagsVariants verifies a partial decode cached under
// one selection is not served to a different selection: a row holds its
// tags through the last one selected, so a narrow entry served to a nil
// or wider selection would show as a short row.
func TestBlobCacheWantTagsVariants(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 1 << 20}, 0)
	s := f.schema(t, "variants", 3)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 64; i++ {
		p := model.Point{Source: ds.ID, TS: int64(i+1) * 10, Values: []float64{float64(i), float64(-i), float64(i % 3)}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}

	scan := func(wantTags []int) []model.Point {
		t.Helper()
		it, err := f.store.HistoricalScan(ds.ID, math.MinInt64, math.MaxInt64, wantTags)
		if err != nil {
			t.Fatal(err)
		}
		return collect(t, it)
	}
	full := scan(nil)
	only0 := scan([]int{0})
	if len(only0) != len(full) {
		t.Fatalf("tag-0 scan = %d rows, full scan %d", len(only0), len(full))
	}
	for i := range only0 {
		if len(only0[i].Values) != 1 {
			t.Fatalf("row %d: tag-0 scan is %d wide, want 1", i, len(only0[i].Values))
		}
		if only0[i].Values[0] != full[i].Values[0] {
			t.Fatalf("row %d tag0 mismatch", i)
		}
	}
	// With the narrow entry cached, a nil and a wider selection each get
	// their own full-width rows, never the narrow entry.
	if again := scan(nil); !pointsEqual(full, again) {
		t.Fatal("full decode after the narrow one diverged")
	}
	wider := scan([]int{0, 1})
	for i := range wider {
		if len(wider[i].Values) != 2 || wider[i].Values[0] != full[i].Values[0] || wider[i].Values[1] != full[i].Values[1] {
			t.Fatalf("row %d of the {0, 1} scan = %v, want the first two tags of %v", i, wider[i].Values, full[i].Values)
		}
	}
	// Same selections again — now served from cache — must agree.
	// (NULL-aware comparison: partial decodes carry NaN cells.)
	if !pointsEqual(full, scan(nil)) {
		t.Fatal("cached full decode diverged")
	}
	if !pointsEqual(only0, scan([]int{0})) {
		t.Fatal("cached partial decode diverged")
	}
	if !pointsEqual(wider, scan([]int{1, 0})) {
		t.Fatal("cached {0, 1} decode diverged")
	}
}
