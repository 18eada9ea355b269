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
// the frame. An LD frame into an MG group does the same at 150 and 1,500
// points: a sample's values are copied into its row's slab.
func TestIngestAllocatesPerFrameNotPerPoint(t *testing.T) {
	t.Run("IRTS", testIngestAllocsIRTS)
	t.Run("MG", testIngestAllocsMG)
}

// A frame whose log encoder left the pool pays for a new one grown from
// nothing: testing.AllocsPerRun of encodeFrames on a new frameEnc counts 33
// and 53 allocations for the IRTS frames of 100 and 1,000 points, 36 and 56
// for the LD frames of 150 and 1,500. A GC empties the pool now and then,
// and under -race sync.Pool drops items at random besides. So a frame may
// allocate refillAllocs more per encoder refill counted while it was
// measured (countFrameRefills), and nothing more: a per-point allocation
// would add 900 or 1,350 a frame.
const refillAllocs = 56

// refillAllowance is what the counted encoder refills of runs frames may
// add to each frame's allocations.
func refillAllowance(refills int64, runs int) float64 {
	return float64(refillAllocs*refills) / float64(runs)
}

// checkFrameAllocs holds the allocations per frame of a small and a large
// frame, measured over runs frames each, to the pin: the same, and at most
// maxAllocs, each allowed refillAllowance for the encoder refills counted
// while it was measured — exact when nothing refilled. Under -race, whose
// sync.Pool drops the rest of the pooled scratch too (the log's append
// request) as often for either size, only the large frame's excess over
// the small one is held to its refills.
func checkFrameAllocs(t *testing.T, small, large float64, smallRefills, largeRefills int64, runs, maxAllocs int) {
	t.Helper()
	t.Logf("allocations per frame: %.0f small, %.0f large (encoder refills: %d and %d in %d frames)",
		small, large, smallRefills, largeRefills, runs)
	if large > small+refillAllowance(largeRefills, runs) {
		t.Fatalf("ingest allocates per point: %.0f per small frame, %.0f per large frame, %d encoder refills in the large ones", small, large, largeRefills)
	}
	if raceEnabled {
		return
	}
	if small > large+refillAllowance(smallRefills, runs) || large > float64(maxAllocs)+refillAllowance(largeRefills, runs) {
		t.Fatalf("a small frame allocates %.0f times, a large frame %.0f (encoder refills: %d and %d in %d frames); want the same, at most %d",
			small, large, smallRefills, largeRefills, runs, maxAllocs)
	}
}

func testIngestAllocsIRTS(t *testing.T) {
	// Two per frame, the frame's catalog lookup table among them; a
	// per-point allocation would add 900 at 1,000 points.
	const maxAllocs = 2
	l, err := walog.OpenPath(t.TempDir()+"/ingest.wal", walog.Options{})
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
	refills := countFrameRefills(t)
	const runs = 50
	perFrame := func(n int) (allocs float64, refilled int64) {
		pts := make([]model.Point, n)
		for i := range pts {
			pts[i] = model.Point{Source: srcs[i%len(srcs)], Values: []float64{1, 2, 3}}
		}
		before := refills.Load()
		allocs = testing.AllocsPerRun(runs, func() {
			ts++
			for i := range pts {
				pts[i].TS = ts
			}
			if err := f.store.WriteBatch(pts); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, refills.Load() - before
	}
	small, smallRefills := perFrame(100)
	large, largeRefills := perFrame(1000)
	if st := f.store.Stats(); st.BatchesFlushed != 0 {
		t.Fatalf("%d batches flushed: the buffers were meant to stay open", st.BatchesFlushed)
	}
	checkFrameAllocs(t, small, large, smallRefills, largeRefills, runs, maxAllocs)
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

	t.Run("MG row refilled across flushes", func(t *testing.T) {
		const window = 60_000
		f := newFixture(t, Config{BatchSize: 8}, 3)
		schema := f.schema(t, "mgrefill", 2)
		var members []*model.DataSource
		for range 3 {
			members = append(members, f.source(t, schema.ID, true, window))
		}
		want := map[int64][]model.Point{}
		check := func(stage string) {
			t.Helper()
			for _, ds := range members {
				if got := scanAll(t, f.store, ds.ID, ScanOptions{}); !samePoints(got, want[ds.ID]) {
					t.Fatalf("%s, member %d:\n got %v\nwant %v", stage, ds.ID, got, want[ds.ID])
				}
			}
		}
		for row := range 9 {
			var frame []model.Point
			for k, ds := range members {
				if row%3 == 1 && k == 2 {
					continue // a partial row: it stays open while later rows flush
				}
				v := float64(row*10 + k)
				frame = append(frame, model.Point{Source: ds.ID, TS: int64(row+1)*window + int64(k), Values: []float64{v, -v}})
			}
			if err := f.store.WriteBatch(frame); err != nil {
				t.Fatal(err)
			}
			for _, p := range frame {
				want[p.Source] = append(want[p.Source], p.Clone())
				p.Values[0], p.Values[1] = math.Inf(1), math.Inf(-1)
			}
			check(fmt.Sprintf("after row %d", row))
		}
		if st := f.store.Stats(); st.BatchesFlushed < 6 {
			t.Fatalf("%d rows flushed, want at least the 6 complete ones", st.BatchesFlushed)
		}
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
		check("flushed")
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

// testIngestAllocsMG writes LD frames — 15 slots a point, most of them
// NULL — into one MG group whose last member never reports, with no cap
// on open rows, so no row ever flushes: every frame opens one row (the
// row, its samples and its value slab) and fills one slot per point.
func testIngestAllocsMG(t *testing.T) {
	// The two of every frame (the IRTS case) and the new row's three: the
	// row, its samples and its slab. A per-point allocation would add
	// 1,350 at 1,500 points.
	const maxAllocs = 5
	const members, window = 1501, 60_000
	l, err := walog.OpenPath(t.TempDir()+"/ingest.wal", walog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	f := newFixture(t, Config{Log: l, maxOpenMGRows: 1 << 20}, members)
	schema := f.schema(t, "ld", 15)
	var srcs []int64
	for range members {
		srcs = append(srcs, f.source(t, schema.ID, false, window).ID)
	}
	var ts int64
	refills := countFrameRefills(t)
	const runs = 50
	perFrame := func(n int) (allocs float64, refilled int64) {
		pts := make([]model.Point, n)
		for i := range pts {
			v := make([]float64, 15)
			for j := range v {
				v[j] = model.NullValue
			}
			v[i%15] = float64(i)
			pts[i] = model.Point{Source: srcs[i], Values: v}
		}
		before := refills.Load()
		allocs = testing.AllocsPerRun(runs, func() {
			ts += 2 * window // past every open row's window
			for i := range pts {
				pts[i].TS = ts + int64(i)
			}
			if err := f.store.WriteBatch(pts); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, refills.Load() - before
	}
	small, smallRefills := perFrame(150)
	large, largeRefills := perFrame(1500)
	if st := f.store.Stats(); st.BatchesFlushed != 0 {
		t.Fatalf("%d rows flushed: they were meant to stay open", st.BatchesFlushed)
	}
	checkFrameAllocs(t, small, large, smallRefills, largeRefills, runs, maxAllocs)
}
