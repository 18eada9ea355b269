package tsstore

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"odh/internal/model"
)

// countPoints drains a historical scan of one source over all time.
func countPoints(t *testing.T, s *Store, source int64) int {
	t.Helper()
	it, err := s.HistoricalScan(source, math.MinInt64, math.MaxInt64, nil)
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
	if err := it.Err(); err != nil {
		t.Fatalf("scan source %d: %v", source, err)
	}
	return n
}

// TestConcurrentIngestAcrossStructures runs parallel writers over RTS,
// IRTS, and MG sources with a background flush loop — the sharded write
// path's bread and butter — and verifies under -race that no point is
// lost or duplicated and that per-source catalog watermarks only move
// forward.
func TestConcurrentIngestAcrossStructures(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, maxOpenMGRows: 4}, 8)
	schema := f.schema(t, "concurrent", 2)

	const (
		nRTS, nIRTS, nMG = 6, 6, 8 // MG sources land in one group of 8
		perSource        = 400
	)
	var rtsSrc, irtsSrc, mgSrc []*model.DataSource
	for i := 0; i < nRTS; i++ {
		rtsSrc = append(rtsSrc, f.source(t, schema.ID, true, 10))
	}
	for i := 0; i < nIRTS; i++ {
		irtsSrc = append(irtsSrc, f.source(t, schema.ID, false, 10))
	}
	for i := 0; i < nMG; i++ {
		mgSrc = append(mgSrc, f.source(t, schema.ID, true, 10_000))
	}

	var wg sync.WaitGroup
	writer := func(ds *model.DataSource, tsFor func(i int) int64) {
		defer wg.Done()
		for i := 0; i < perSource; i++ {
			p := model.Point{Source: ds.ID, TS: tsFor(i), Values: []float64{float64(i), float64(ds.ID)}}
			if err := f.store.Write(p); err != nil {
				t.Errorf("source %d: %v", ds.ID, err)
				return
			}
		}
	}
	for _, ds := range rtsSrc {
		wg.Add(1)
		go writer(ds, func(i int) int64 { return int64(i+1) * 10 })
	}
	for _, ds := range irtsSrc {
		wg.Add(1)
		// Jittered but monotonic timestamps, with an occasional step back
		// to exercise the out-of-order batch split.
		go writer(ds, func(i int) int64 {
			ts := int64(i+1)*10 + int64(i%3)
			if i%97 == 96 {
				ts -= 40
			}
			return ts
		})
	}
	for _, ds := range mgSrc {
		wg.Add(1)
		// One point per 10s window, slight per-member offset inside it.
		off := ds.GroupSlot
		go writer(ds, func(i int) int64 { return int64(i+1)*10_000 + int64(off) })
	}

	// Background flush loop racing the writers.
	done := make(chan struct{})
	var flusherWG sync.WaitGroup
	flusherWG.Add(1)
	go func() {
		defer flusherWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := f.store.Flush(); err != nil {
					t.Errorf("background flush: %v", err)
					return
				}
			}
		}
	}()

	// Watermark monitor: a source's catalog LastTS must never move
	// backwards while writers only append forward in time.
	var monitorWG sync.WaitGroup
	monitorWG.Add(1)
	var monitorStop atomic.Bool
	go func() {
		defer monitorWG.Done()
		last := make(map[int64]int64)
		for !monitorStop.Load() {
			for _, ds := range rtsSrc {
				st := f.cat.Stats(ds.ID)
				if prev, ok := last[ds.ID]; ok && st.PointCount > 0 && st.LastTS < prev {
					t.Errorf("source %d watermark moved back: %d -> %d", ds.ID, prev, st.LastTS)
					return
				}
				if st.PointCount > 0 {
					last[ds.ID] = st.LastTS
				}
			}
		}
	}()

	wg.Wait()
	close(done)
	flusherWG.Wait()
	monitorStop.Store(true)
	monitorWG.Wait()
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}

	total := int64(nRTS+nIRTS+nMG) * perSource
	if st := f.store.Stats(); st.PointsWritten != total {
		t.Fatalf("PointsWritten = %d, want %d", st.PointsWritten, total)
	}
	for _, ds := range append(append(append([]*model.DataSource{}, rtsSrc...), irtsSrc...), mgSrc...) {
		if n := countPoints(t, f.store, ds.ID); n != perSource {
			t.Errorf("source %d: scanned %d points, want %d", ds.ID, n, perSource)
		}
	}
}

// TestShardConfigOverride pins the shards override.
func TestShardConfigOverride(t *testing.T) {
	f1 := newFixture(t, Config{shards: 1}, 8)
	if got := len(f1.store.shards); got != 1 {
		t.Fatalf("Shards=1 gave %d shards", got)
	}
	f8 := newFixture(t, Config{shards: 7}, 8)
	if got := len(f8.store.shards); got != 8 {
		t.Fatalf("Shards=7 should round up to 8, got %d", got)
	}
}
