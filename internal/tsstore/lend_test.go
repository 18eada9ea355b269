package tsstore

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"odh/internal/model"
)

// lendFixture stores one RTS source of n rows as a single record behind a
// decoded-blob cache, and scans it once so the cache holds the record.
func lendFixture(t *testing.T, n int) (*fixture, int64) {
	t.Helper()
	f := newFixture(t, Config{BatchSize: n, BlobCacheBytes: 16 << 20}, 0)
	schema := f.schema(t, "lend", 3)
	src := f.source(t, schema.ID, true, 10).ID
	pts := make([]model.Point, n)
	for i := range pts {
		pts[i] = model.Point{Source: src, TS: int64(i) * 10, Values: []float64{float64(i), float64(i % 7), math.NaN()}}
	}
	if err := f.store.WriteBatch(pts); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(scanAll(t, f.store, src, ScanOptions{})); got != n {
		t.Fatalf("warm-up scan: %d rows, want %d", got, n)
	}
	return f, src
}

// TestCachedScanAllocatesPerRecordNotPerRow pins the lent row: a scan
// served by the cache hands out the cached batch's rows without copying
// them, so it allocates the same number of times for a 128-row record as
// for a 1,024-row one.
func TestCachedScanAllocatesPerRecordNotPerRow(t *testing.T) {
	perScan := func(n int) float64 {
		f, src := lendFixture(t, n)
		hits := f.store.Stats().BlobCacheHits
		allocs := testing.AllocsPerRun(20, func() {
			it, err := f.store.HistoricalScan(src, math.MinInt64, math.MaxInt64, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				rows++
			}
			if rows != n || it.Err() != nil {
				t.Fatalf("%d rows (err %v), want %d", rows, it.Err(), n)
			}
		})
		if f.store.Stats().BlobCacheHits == hits {
			t.Fatalf("%d-row record: the scans were not served by the cache", n)
		}
		return allocs
	}
	small, large := perScan(128), perScan(1024)
	t.Logf("allocations per cached scan: %.0f at 128 rows, %.0f at 1,024", small, large)
	// Under the race detector sync.Pool drops pooled scan scratch at
	// random, which moves either count by a few; a per-row copy adds 896.
	if raceEnabled && large <= small+8 {
		return
	}
	if small != large {
		t.Fatalf("a cached scan allocates %.0f times over 128 rows and %.0f over 1,024: rows are copied", small, large)
	}
}

// TestConcurrentScansOfACachedRecord holds the lent rows of one cached
// batch to being read-only: scans on several goroutines share them (under
// -race, any write to the batch while another scan reads it is reported)
// and every scan returns the rows that were written.
func TestConcurrentScansOfACachedRecord(t *testing.T) {
	const n = 512
	f, src := lendFixture(t, n)
	want := scanAll(t, f.store, src, ScanOptions{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				it, err := f.store.HistoricalScan(src, math.MinInt64, math.MaxInt64, nil)
				if err != nil {
					errs <- err
					return
				}
				i := 0
				for p, ok := it.Next(); ok; p, ok = it.Next() {
					if i >= n || p.TS != want[i].TS || !valuesEqual(p.Values, want[i].Values) {
						errs <- fmt.Errorf("row %d: %+v, want %+v", i, p, want[min(i, n-1)])
						return
					}
					i++
				}
				if i != n || it.Err() != nil {
					errs <- fmt.Errorf("%d rows (err %v), want %d", i, it.Err(), n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, p := range want {
		if p.TS != int64(i)*10 || p.Values[0] != float64(i) || p.Values[1] != float64(i%7) || !model.IsNull(p.Values[2]) {
			t.Fatalf("row %d = %+v: not the row written", i, p)
		}
	}
}
