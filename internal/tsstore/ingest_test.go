package tsstore

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"odh/internal/btree"
	"odh/internal/catalog"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/walog"
)

// TestIngestAllocatesPerFrameNotPerPoint pins the ingest pass: a frame
// into open IRTS buffers — resolved, logged, buffered — allocates the same
// small number of times at 100 points as at 1,000. Buffering a point
// appends its values into its source's slab, so no allocation scales with
// the frame.
func TestIngestAllocatesPerFrameNotPerPoint(t *testing.T) {
	// Two per frame, the frame's catalog lookup table among them; a
	// per-point allocation would add 900 at 1,000 points.
	const maxAllocs = 2
	l, err := walog.Open(t.TempDir() + "/ingest.wal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	f := newFixture(t, Config{BatchSize: 8192, Log: l}, 0)
	schema := f.schema(t, "alloc", 3)
	var srcs []int64
	for range 10 {
		srcs = append(srcs, f.source(t, schema.ID, false, 10).ID)
	}
	var ts int64
	perFrame := func(n int) float64 {
		pts := make([]model.Point, n)
		for i := range pts {
			pts[i] = model.Point{Source: srcs[i%len(srcs)], Values: []float64{1, 2, 3}}
		}
		return testing.AllocsPerRun(50, func() {
			ts++
			for i := range pts {
				pts[i].TS = ts
			}
			if err := f.store.WriteBatch(pts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perFrame(100), perFrame(1000)
	t.Logf("allocations per frame: %.0f at 100 points, %.0f at 1,000", small, large)
	if st := f.store.Stats(); st.BatchesFlushed != 0 {
		t.Fatalf("%d batches flushed: the buffers were meant to stay open", st.BatchesFlushed)
	}
	if raceEnabled {
		// The log encoder's pooled scratch is dropped at random and
		// re-grown, a few allocations per frame.
		if large > small+16 {
			t.Fatalf("ingest allocates per point: %.0f per 100-point frame, %.0f per 1,000-point frame", small, large)
		}
		return
	}
	if small != large || large > maxAllocs {
		t.Fatalf("a 100-point frame allocates %.0f times, a 1,000-point frame %.0f; want the same, at most %d", small, large, maxAllocs)
	}
}

// TestBufferedValuesOwnedByStore holds the buffers' value slabs to the
// ownership rule: what a caller passes is copied before WriteBatch
// returns, a slab reused after a flush never shows through a flushed
// record, and a reader scanning while a buffer refills reads exact rows.
func TestBufferedValuesOwnedByStore(t *testing.T) {
	t.Run("caller overwrites its frame", func(t *testing.T) {
		f := newFixture(t, Config{BatchSize: 8}, 0)
		schema := f.schema(t, "own", 2)
		rts, irts := f.source(t, schema.ID, true, 10), f.source(t, schema.ID, false, 10)
		var frame []model.Point
		for i := range 20 {
			for _, ds := range []*model.DataSource{rts, irts} {
				frame = append(frame, model.Point{Source: ds.ID, TS: int64(i+1) * 10, Values: []float64{float64(i), -float64(ds.ID)}})
			}
		}
		want := map[int64][]model.Point{}
		for _, p := range frame {
			want[p.Source] = append(want[p.Source], p.Clone())
		}
		if err := f.store.WriteBatch(frame); err != nil {
			t.Fatal(err)
		}
		for _, p := range frame {
			for i := range p.Values {
				p.Values[i] = math.Inf(1)
			}
		}
		for _, stage := range []string{"dirty read", "flushed"} {
			for _, ds := range []*model.DataSource{rts, irts} {
				if got := scanAll(t, f.store, ds.ID, ScanOptions{}); !samePoints(got, want[ds.ID]) {
					t.Fatalf("%s of source %d:\n got %v\nwant %v", stage, ds.ID, got, want[ds.ID])
				}
			}
			if err := f.store.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("refilled across flushes", func(t *testing.T) {
		f := newFixture(t, Config{BatchSize: 8, BlobCacheBytes: 1 << 20}, 0)
		schema := f.schema(t, "refill", 3)
		rts, irts := f.source(t, schema.ID, true, 10), f.source(t, schema.ID, false, 10)
		want := map[int64][]model.Point{}
		write := func(ds *model.DataSource, tss ...int64) {
			t.Helper()
			var frame []model.Point
			for _, ts := range tss {
				v := float64(ts) + float64(ds.ID)/8
				frame = append(frame, model.Point{Source: ds.ID, TS: ts, Values: []float64{v, -v, v * v}})
			}
			if err := f.store.WriteBatch(frame); err != nil {
				t.Fatal(err)
			}
			want[ds.ID] = append(want[ds.ID], frame...)
			slices.SortStableFunc(want[ds.ID], func(a, b model.Point) int { return int(a.TS - b.TS) })
			if got := scanAll(t, f.store, ds.ID, ScanOptions{}); !samePoints(got, want[ds.ID]) {
				t.Fatalf("source %d after writing %v:\n got %v\nwant %v", ds.ID, tss, got, want[ds.ID])
			}
		}
		run := func(from, n, step int64) []int64 {
			var out []int64
			for i := range n {
				out = append(out, from+i*step)
			}
			return out
		}
		// Three full batches, then an RTS gap mid-buffer that closes a
		// three-point batch and opens a run after it.
		write(rts, run(10, 27, 10)...)
		write(rts, run(1000, 12, 10)...)
		// IRTS: two full batches, then an out-of-order point splits the
		// open buffer, and later points refill the reused slab.
		write(irts, run(10, 19, 10)...)
		write(irts, 95, 205, 215)
		write(irts, run(400, 20, 7)...)
		if st := f.store.Stats(); st.BatchesFlushed < 8 {
			t.Fatalf("%d batches flushed, want at least 8", st.BatchesFlushed)
		}
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, ds := range []*model.DataSource{rts, irts} {
			if got := scanAll(t, f.store, ds.ID, ScanOptions{}); !samePoints(got, want[ds.ID]) {
				t.Fatalf("source %d flushed:\n got %v\nwant %v", ds.ID, got, want[ds.ID])
			}
		}
	})

	t.Run("reader races a refilling buffer", func(t *testing.T) {
		f := newFixture(t, Config{BatchSize: 16}, 0)
		schema := f.schema(t, "race", 2)
		ds := f.source(t, schema.ID, false, 10)
		const n = 600
		want := make([]model.Point, n)
		for i := range want {
			want[i] = model.Point{Source: ds.ID, TS: int64(i) * 10, Values: []float64{float64(i), float64(-i)}}
		}
		var acked atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for acked.Load() < n {
					floor := int(acked.Load())
					it, err := f.store.HistoricalScan(ds.ID, math.MinInt64, math.MaxInt64, nil)
					if err != nil {
						errs <- err
						return
					}
					var got []model.Point
					for p, ok := it.Next(); ok; p, ok = it.Next() {
						got = append(got, p.Clone())
					}
					if err := it.Err(); err != nil {
						errs <- err
						return
					}
					if len(got) < floor || len(got) > n || !samePoints(got, want[:len(got)]) {
						errs <- fmt.Errorf("a scan after %d acked points read %d rows, not a prefix of the %d written", floor, len(got), n)
						return
					}
				}
			}()
		}
		for i := 0; i < n; i += 3 {
			frame := make([]model.Point, 0, 3)
			for _, p := range want[i:min(i+3, n)] {
				frame = append(frame, p.Clone())
			}
			if err := f.store.WriteBatch(frame); err != nil {
				errs <- err
				acked.Store(n)
				break
			}
			for _, p := range frame {
				p.Values[0] = math.NaN()
			}
			acked.Store(int64(min(i+3, n)))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestWriteBatchRejectsWholeFrame checks that a frame is validated whole
// before any of it takes effect: an unknown source, a source whose schema
// is missing, or a wrong value count anywhere in it fails with its message
// while nothing is logged, buffered or counted.
func TestWriteBatchRejectsWholeFrame(t *testing.T) {
	file := pagestore.NewMemFile()
	page, err := pagestore.Open(file, pagestore.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { page.Close() })
	cat, err := catalog.Open(page, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := cat.CreateSchemaType("good", []model.TagDef{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := cat.CreateSchemaType("gone", []model.TagDef{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	var srcs []*model.DataSource
	for i := range 4 {
		ds, err := cat.RegisterSource(model.DataSource{SchemaID: good.ID, Regular: i%2 == 0, IntervalMs: 10})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, ds)
	}
	orphan, err := cat.RegisterSource(model.DataSource{SchemaID: gone.ID, IntervalMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Lose the schema record, as a damaged catalog would; reopening
	// leaves the orphan registered without its schema.
	schemas, err := btree.Open(page, "cat.schemas")
	if err != nil {
		t.Fatal(err)
	}
	if err := schemas.Delete(keyenc.AppendInt64(nil, gone.ID)); err != nil {
		t.Fatal(err)
	}
	if cat, err = catalog.Open(page, 0); err != nil {
		t.Fatal(err)
	}
	l, err := walog.OpenFile(pagestore.NewMemFile(), walog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s, err := Open(page, cat, Config{BatchSize: 8, Log: l})
	if err != nil {
		t.Fatal(err)
	}

	frame := func() []model.Point {
		var pts []model.Point
		for i := range 10 {
			for _, ds := range srcs {
				pts = append(pts, model.Point{Source: ds.ID, TS: int64(i+1) * 10, Values: []float64{1, 2}})
			}
		}
		return pts
	}
	if err := s.WriteBatch(frame()); err != nil {
		t.Fatal(err)
	}
	before := func() (int64, int64, []int) {
		var counts []int
		for _, ds := range srcs {
			counts = append(counts, countPoints(t, s, ds.ID))
		}
		return s.Stats().PointsWritten, l.Stats().Records, counts
	}
	written, records, counts := before()
	for _, tc := range []struct {
		name  string
		spoil func(p *model.Point)
		want  func(p model.Point) string
	}{
		{"unknown source", func(p *model.Point) { p.Source = 0xDEAD },
			func(model.Point) string { return "tsstore: unknown data source 57005" }},
		{"unknown schema", func(p *model.Point) { p.Source, p.Values = orphan.ID, []float64{1} },
			func(model.Point) string {
				return fmt.Sprintf("tsstore: source %d has unknown schema %d", orphan.ID, gone.ID)
			}},
		{"wrong value count", func(p *model.Point) { p.Values = []float64{1, 2, 3} },
			func(p model.Point) string { return fmt.Sprintf("tsstore: source %d: 3 values for 2 tags", p.Source) }},
	} {
		for _, at := range []int{0, 17, 39} {
			pts := frame()
			for i := range pts {
				pts[i].TS += 1000
			}
			tc.spoil(&pts[at])
			err := s.WriteBatch(pts)
			if want := tc.want(pts[at]); err == nil || err.Error() != want {
				t.Fatalf("%s at %d: err = %v, want %q", tc.name, at, err, want)
			}
			w, r, c := before()
			if w != written || r != records || !slices.Equal(c, counts) {
				t.Fatalf("%s at %d took effect: points written %d -> %d, log records %d -> %d, points per source %v -> %v",
					tc.name, at, written, w, records, r, counts, c)
			}
		}
	}
}
