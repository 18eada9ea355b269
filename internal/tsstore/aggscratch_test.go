package tsstore

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"odh/internal/btree"
	"odh/internal/keyenc"
	"odh/internal/model"
)

// cutFixture writes n IRTS sources into a schema of its own, each two
// records of batch rows, and returns the schema and a window that starts
// inside every source's first record and ends inside its second: every
// record is a boundary decode of a row range.
func cutFixture(t testing.TB, f *fixture, name string, n, batch int) (schema int64, t1, t2 int64) {
	t.Helper()
	s := f.schema(t, name, 4)
	for range n {
		ds := f.source(t, s.ID, false, 10)
		pts := make([]model.Point, 2*batch)
		for i := range pts {
			v := float64(i) / 4
			pts[i] = model.Point{Source: ds.ID, TS: int64(i)*10 + int64(i%3), Values: []float64{v, -v, model.NullValue, v * 2}}
		}
		if err := f.store.WriteBatch(pts); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	return s.ID, int64(batch/2) * 10, int64(3*batch/2) * 10
}

// TestAggregateAllocatesPerQueryNotPerSource pins what a grouped aggregate
// whose window cuts every record allocates for one more source: the
// decodes land in the walker's scratch, the serial walk folds into one
// partial whose groups take their arrays from one slab, and the walker
// list is one allocation — so a source adds its result group's growth and
// little else.
func TestAggregateAllocatesPerQueryNotPerSource(t *testing.T) {
	const n, batch = 40, 32
	f := newFixture(t, Config{BatchSize: batch, BlobCacheBytes: 1 << 20}, 0)
	small, t1, t2 := cutFixture(t, f, "small", n, batch)
	large, _, _ := cutFixture(t, f, "large", 2*n, batch)
	perCall := func(schema int64, want int) float64 {
		spec := AggSpec{T1: t1, T2: t2, NTags: 4, ByID: true, WantTags: []int{0, 1, 3}}
		return testing.AllocsPerRun(20, func() {
			res, err := f.store.AggregateSlice(schema, spec)
			if err != nil || len(res.Groups) != want || res.Groups[0].Rows != int64(batch) {
				t.Fatalf("%d groups, %v", len(res.Groups), err)
			}
		})
	}
	decoded := f.store.Stats().DecodedValues
	a, b := perCall(small, n), perCall(large, 2*n)
	if f.store.Stats().DecodedValues == decoded {
		t.Fatal("the window decoded nothing: it does not cut the records")
	}
	per := (b - a) / n
	t.Logf("allocations per aggregate: %.0f over %d sources, %.0f over %d: %.2f a source", a, n, b, 2*n, per)
	if per > 3 {
		t.Fatalf("a source adds %.2f allocations to an aggregate, want at most 3", per)
	}
}

// TestRowRangeDecodeAllocatesNothing: a row range decoded again into the
// walker's scratch reuses the arrays the first decode grew — timestamps,
// row headers, cells and the column it scatters from — whether the record
// is of one segment or of several.
func TestRowRangeDecodeAllocatesNothing(t *testing.T) {
	for _, batch := range []int{32, 300} {
		f := newFixture(t, Config{BatchSize: batch}, 0)
		schema, t1, t2 := cutFixture(t, f, "range", 1, batch)
		w := f.store.sliceWalkers(schema, t1, t2, []int{0, 3}, ScanOptions{})[0]
		ch, err := w.step()
		if err != nil || len(ch.recs) != 2 {
			t.Fatalf("batch %d: %d records, %v", batch, len(ch.recs), err)
		}
		for i := range ch.recs {
			rec := &ch.recs[i]
			got, err := w.decode(rec, ch.lo, ch.hi, &w.batch)
			if err != nil || got != &w.batch || len(got.Rows) == 0 || len(got.Rows) == batch {
				t.Fatalf("batch %d record %d: %d rows into the scratch (%v), want a row range", batch, i, len(got.Rows), err)
			}
			if allocs := testing.AllocsPerRun(50, func() { w.decode(rec, ch.lo, ch.hi, &w.batch) }); allocs != 0 {
				t.Fatalf("batch %d record %d: a repeated row-range decode allocates %.0f times", batch, i, allocs)
			}
		}
		w.release(nil)
	}
}

// TestScratchNeverEscapesTheWalk runs aggregates whose windows cut records
// beside aggregates of every row and slice scans, on several goroutines
// over one store with the cache on: RTS, IRTS and MG owners, schema-wide,
// by id list and by one MG member. A batch decoded into a walker's scratch
// must never reach the cache — every entry afterwards is a fresh decode of
// its stored record — and must never be read after the next decode
// overwrote it: a second pass of the same aggregates, serial and with the
// cache off, returns the same groups, bit for bit.
func TestScratchNeverEscapesTheWalk(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 8 << 20}, 2)
	schema := f.schema(t, "escape", 3)
	srcs := []*model.DataSource{
		f.source(t, schema.ID, true, 10),   // RTS
		f.source(t, schema.ID, false, 25),  // IRTS
		f.source(t, schema.ID, true, 5000), // MG
		f.source(t, schema.ID, true, 5000), // MG, the same group
	}
	const n = 600
	for i := range n {
		for _, ds := range srcs {
			v := float64(i%97) / 4
			ts := int64(i)*ds.IntervalMs + int64(ds.GroupSlot)
			if !ds.Regular {
				ts += int64(i % 3) // irregular
			}
			if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{v, -v, float64(i % 5)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	// Part of the MG history moves to its members' own records.
	if _, err := f.store.Reorganize(schema.ID, n/3*5000); err != nil {
		t.Fatal(err)
	}
	type query struct {
		name string
		spec AggSpec
		run  func(AggSpec) (*AggResult, error)
	}
	var queries []query
	for q := range 24 {
		t1 := int64(q*131) % (n * 5000 / 2)
		spec := AggSpec{T1: t1, T2: t1 + 7 + int64(q*977)%(n*2500), NTags: 3, ByID: q%2 == 0,
			WantTags: [][]int{nil, {1}, {0, 2}}[q%3], BucketMs: []int64{0, 0, 1000}[q%3]}
		if q%4 == 3 {
			spec.T1, spec.T2 = math.MinInt64/2, math.MaxInt64/2
		}
		queries = append(queries,
			query{"slice", spec, func(s AggSpec) (*AggResult, error) { return f.store.AggregateSlice(schema.ID, s) }},
			query{"multi", spec, func(s AggSpec) (*AggResult, error) { return f.store.AggregateMulti([]int64{srcs[1].ID, srcs[0].ID}, s) }},
			query{"member", spec, func(s AggSpec) (*AggResult, error) { return f.store.AggregateHistorical(srcs[2+q%2].ID, s) }})
	}
	first := make([][]*AggResult, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 4 {
		first[g] = make([]*AggResult, len(queries))
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				s := q.spec
				s.Opts.Workers = 1 + g%2
				res, err := q.run(s)
				if err != nil {
					errs <- err
					return
				}
				first[g][i] = res
			}
		}()
		go func() {
			defer wg.Done()
			for q := range 6 {
				it, err := f.store.SliceScanOpts(schema.ID, int64(q*1700), int64(q*1700+g*900_000+5000), [][]int{nil, {2}}[q%2], ScanOptions{})
				if err != nil {
					errs <- err
					return
				}
				for _, ok := it.Next(); ok; _, ok = it.Next() {
				}
				if err := it.Err(); err != nil {
					errs <- err
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

	c := f.store.cache
	entries := 0
	for bk, variants := range c.entries {
		tree := map[uint8]*btree.Tree{cacheTreeRTS: f.store.rts, cacheTreeIRTS: f.store.irts, cacheTreeMG: f.store.mg}[bk.tree]
		blob, err := tree.Get(keyenc.AppendSourceTime(nil, bk.source, bk.ts))
		if err != nil {
			t.Fatal(err)
		}
		for sig, e := range variants {
			var tags []int
			if sig != "*" {
				tags = []int{}
				for _, s := range strings.Split(strings.TrimSuffix(sig, ","), ",") {
					if tag, err := strconv.Atoi(s); err == nil {
						tags = append(tags, tag)
					}
				}
			}
			want, err := DecodeBlob(blob, bk.ts, tags)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBatch(e.batch, want) {
				t.Fatalf("cache entry %+v %q is not a fresh decode of its record:\n got %+v\nwant %+v", bk, sig, e.batch, want)
			}
			entries++
		}
	}
	if entries == 0 {
		t.Fatal("no cache entry to check")
	}
	for i, q := range queries {
		for _, noCache := range []bool{false, true} {
			s := q.spec
			s.Opts.NoCache = noCache
			again, err := q.run(s)
			if err != nil {
				t.Fatal(err)
			}
			for g := range first {
				sameAggResult(t, fmt.Sprintf("%s %d nocache=%v goroutine %d", q.name, i, noCache, g), again, first[g][i])
			}
		}
	}
	t.Logf("%d cache entries checked, %d aggregates", entries, len(queries))
}

// sameBatch reports whether two decodes hold the same rows, bit for bit.
func sameBatch(a, b *DecodedBatch) bool {
	if a.Structure != b.Structure || !slices.Equal(a.Timestamps, b.Timestamps) || !slices.Equal(a.Slots, b.Slots) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !slices.EqualFunc(a.Rows[i], b.Rows[i], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}
