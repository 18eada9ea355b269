package tsstore

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"odh/internal/catalog"
	"odh/internal/fault"
	"odh/internal/model"
	"odh/internal/pagestore"
)

// TestClampWorkers pins the worker clamp.
func TestClampWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {4, 4}, {maxScanWorkers, maxScanWorkers}, {maxScanWorkers + 100, maxScanWorkers},
	} {
		if got := clampWorkers(tc.in); got != tc.want {
			t.Fatalf("clampWorkers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentParallelQueries runs concurrent readers (scans, and
// aggregates that fan out) against live ingest, background flushes, and
// retention with the decode cache enabled. Under -race this covers the
// cache's concurrent get/put/invalidate paths. While racing,
// every read must be an exact dirty read (see feed): each row acked
// before it started exactly once, nothing beyond what writers had started
// when it ended, single-source scans ascending; after quiescing, cached
// and uncached scans must agree exactly.
func TestConcurrentParallelQueries(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, maxOpenMGRows: 4, BlobCacheBytes: 256 << 10}, 4)
	s := f.schema(t, "race", 2)
	rts := f.source(t, s.ID, true, 10)
	irts := f.source(t, s.ID, false, 10)
	var mgs []*model.DataSource
	for i := 0; i < 4; i++ {
		mgs = append(mgs, f.source(t, s.ID, true, 10_000))
	}
	sources := append([]*model.DataSource{rts, irts}, mgs...)

	const perSource = 1500
	streams := map[int64][]model.Point{}
	for _, ds := range sources {
		pts := make([]model.Point, perSource)
		for i := range pts {
			pts[i] = model.Point{TS: int64(i+1)*ds.IntervalMs + int64(ds.GroupSlot), Values: []float64{0, float64(ds.ID)}}
		}
		streams[ds.ID] = pts
	}
	fd := newFeed(streams)
	var wg, writers sync.WaitGroup
	var stop atomic.Bool

	// Writers: one per source.
	for _, ds := range sources {
		ds := ds
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perSource; i++ {
				if err := fd.write(f.store, ds.ID, i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Background flusher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := f.store.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Periodic retention on a prefix below the readers' window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20 && !stop.Load(); i++ {
			if _, err := f.store.DropBefore(s.ID, 50); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers: fanned-out single-source scans and schema slices.
	const t1 = 100
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ds := sources[(r+i)%len(sources)]
				err := fd.readHistorical(f.store, ds.ID, t1, math.MaxInt64, nil, ScanOptions{Workers: 4, NoCache: i%2 == 0})
				if err == nil && i%8 == 0 {
					err = fd.readSlice(f.store, s.ID, t1, math.MaxInt64, nil, ScanOptions{Workers: 4})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	wg.Wait()

	// Quiesced: cached, parallel, and raw serial scans must agree exactly.
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ds := range sources {
		raw := scanAll(t, f.store, ds.ID, ScanOptions{NoCache: true})
		cached := scanAll(t, f.store, ds.ID, ScanOptions{})
		par := scanAll(t, f.store, ds.ID, ScanOptions{Workers: 4})
		if !pointsEqual(raw, cached) || !pointsEqual(raw, par) {
			t.Fatalf("source %d: post-quiesce scans diverged (raw=%d cached=%d par=%d rows)", ds.ID, len(raw), len(cached), len(par))
		}
	}
}

// TestBlobCacheSurvivesFailedMaintenance injects write failures midway
// through retention and reorganization. Whatever prefix of the operation
// landed, the cache must not serve decodes for blobs the failed pass
// already touched: a cached scan of the resulting state must equal an
// uncached one. This is why invalidation fires even when the tree
// mutation itself errors.
func TestBlobCacheSurvivesFailedMaintenance(t *testing.T) {
	for _, failAfter := range []int{0, 1, 3, 7} {
		ff := fault.Wrap(pagestore.NewMemFile())
		// A tiny pool forces evictions, so tree mutations reach the
		// backing file (and its armed failure) mid-operation.
		page, err := pagestore.Open(ff, pagestore.Options{PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		cat, err := catalog.Open(page, 4)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(page, cat, Config{BatchSize: 8, maxOpenMGRows: 2, BlobCacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		f := &fixture{store: st, cat: cat, page: page}
		s := f.schema(t, "faulty", 2)
		ds := f.source(t, s.ID, true, 10)
		var mgs []*model.DataSource
		for i := 0; i < 4; i++ {
			mgs = append(mgs, f.source(t, s.ID, true, 10_000))
		}
		fillSource(t, f, ds, 300)
		for w := 1; w <= 8; w++ {
			for _, mg := range mgs {
				if err := st.Write(model.Point{Source: mg.ID, TS: int64(w)*10_000 + int64(mg.GroupSlot), Values: []float64{float64(w), 1}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		// Warm the cache over every source.
		scanAll(t, st, ds.ID, ScanOptions{})
		for _, mg := range mgs {
			scanAll(t, st, mg.ID, ScanOptions{})
		}

		ff.FailWritesAfter(failAfter)
		_, dropErr := st.DropBefore(s.ID, 1500)
		_, reorgErr := st.Reorganize(s.ID, 5*10_000)
		if dropErr == nil && reorgErr == nil {
			t.Logf("failAfter=%d: maintenance survived (writes stayed in pool)", failAfter)
		}
		// Disarm so comparison reads (which may evict dirty pages) work.
		ff.FailWritesAfter(-1)

		// Whatever state the failed pass left behind, cached and raw
		// scans of it must be identical.
		for _, src := range append([]*model.DataSource{ds}, mgs...) {
			it, err := st.HistoricalScanOpts(src.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cached, cachedErr := drainPoints(it)
			it, err = st.HistoricalScanOpts(src.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			raw, rawErr := drainPoints(it)
			if (cachedErr == nil) != (rawErr == nil) {
				t.Fatalf("failAfter=%d source %d: cached err=%v raw err=%v", failAfter, src.ID, cachedErr, rawErr)
			}
			if !pointsEqual(cached, raw) {
				t.Fatalf("failAfter=%d source %d: cached scan diverged after failed maintenance (%d vs %d rows)", failAfter, src.ID, len(cached), len(raw))
			}
		}
		page.Close()
	}
}

func drainPoints(it Iterator) ([]model.Point, error) {
	var out []model.Point
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out, it.Err()
}
