package tsstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"odh/internal/catalog"
	"odh/internal/model"
	"odh/internal/pagestore"
)

// windowsExact checks that every window [lo, hi) reads exactly the rows of
// truth there, through the slice scan, each source's historical scan and
// the per-source slice aggregate, and that fsck finds nothing.
func windowsExact(t *testing.T, f *fixture, schemaID int64, sources []*model.DataSource, truth []model.Point, windows [][2]int64, label string) {
	t.Helper()
	if _, corrupt, stale, err := f.store.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 {
		t.Fatalf("%s: fsck: corrupt=%v stale=%v err=%v", label, corrupt, stale, err)
	}
	ordered := func(pts []model.Point) []model.Point {
		sort.SliceStable(pts, func(i, j int) bool {
			a, b := pts[i], pts[j]
			if a.Source != b.Source {
				return a.Source < b.Source
			}
			if a.TS != b.TS {
				return a.TS < b.TS
			}
			return a.Values[0] < b.Values[0]
		})
		return pts
	}
	filter := func(src, lo, hi int64) []model.Point {
		var out []model.Point
		for _, p := range truth {
			if p.TS >= lo && p.TS < hi && (src == 0 || p.Source == src) {
				out = append(out, p)
			}
		}
		return ordered(out)
	}
	drain := func(what string, it Iterator, err error) []model.Point {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		pts, err := drainPoints(it)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return ordered(pts)
	}
	opts := ScanOptions{NoCache: true}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		what := fmt.Sprintf("%s: [%d,%d)", label, lo, hi)
		want := filter(0, lo, hi)
		it, err := f.store.SliceScanOpts(schemaID, lo, hi, nil, opts)
		if got := drain(what+" slice", it, err); !pointsEqual(got, want) {
			t.Fatalf("%s: slice scan returns %v, want %v", what, got, want)
		}
		rows, sums := map[int64]int64{}, map[int64]float64{}
		for _, ds := range sources {
			it, err := f.store.MultiHistoricalScanOpts([]int64{ds.ID}, lo, hi, nil, opts)
			if got, want := drain(what+" historical", it, err), filter(ds.ID, lo, hi); !pointsEqual(got, want) {
				t.Fatalf("%s: historical scan of %d returns %v, want %v", what, ds.ID, got, want)
			}
		}
		for _, p := range want {
			rows[p.Source]++
			sums[p.Source] += p.Values[0]
		}
		res, err := f.store.AggregateSlice(schemaID, AggSpec{T1: lo, T2: hi, NTags: 1, ByID: true, Opts: opts})
		if err != nil {
			t.Fatalf("%s: aggregate: %v", what, err)
		}
		if len(res.Groups) != len(rows) {
			t.Fatalf("%s: aggregate has %d groups, want %d", what, len(res.Groups), len(rows))
		}
		for _, g := range res.Groups {
			if g.Rows != rows[g.ID] || g.Sum[0] != sums[g.ID] {
				t.Fatalf("%s: aggregate of %d: COUNT=%d SUM=%v, want %d and %v", what, g.ID, g.Rows, g.Sum[0], rows[g.ID], sums[g.ID])
			}
		}
	}
}

// reopenableFixture opens a fixture over an in-memory file and returns it
// with a reopen that flushes, closes and opens the same file again, in
// place: after it the fixture holds what a restart finds.
func reopenableFixture(t *testing.T, cfg Config, groupSize int) (*fixture, func()) {
	t.Helper()
	file := pagestore.NewMemFile()
	f := &fixture{}
	open := func() {
		page, err := pagestore.Open(file, pagestore.Options{PoolPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		cat, err := catalog.Open(page, groupSize)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(page, cat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		*f = fixture{store: st, cat: cat, page: page}
	}
	open()
	t.Cleanup(func() { f.page.Close() })
	return f, func() {
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.page.Close(); err != nil {
			t.Fatal(err)
		}
		open()
	}
}

// TestMGWindowIsTheGroups is the regression for a writer and a reader that
// disagreed about an MG group's window: the writer bucketed rows by the
// interval of whichever member wrote first, the reader looked back by the
// first member's. With a at 1 s in slot 0 and b at 10 s writing first, a's
// sample at 18000 joined a record keyed 10000, 8 s behind it, and every
// windowed scan over [15000, 20000) came back empty with a nil error. The
// writer spans rows over the group's window too, so every record is within the
// reader's lookback: buffered, flushed and after a reopen.
func TestMGWindowIsTheGroups(t *testing.T) {
	f, reopen := reopenableFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "mixed", 1)
	a := f.source(t, s.ID, false, 1000)
	b := f.source(t, s.ID, false, 10000)
	if a.Group == 0 || a.Group != b.Group || a.GroupSlot != 0 {
		t.Fatalf("a and b do not share one group with a in slot 0: %+v %+v", a, b)
	}
	sources := []*model.DataSource{a, b}
	var truth []model.Point
	write := func(ds *model.DataSource, ts int64) {
		t.Helper()
		p := model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(int64(1) << len(truth))}}
		truth = append(truth, p)
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	windows := [][2]int64{{15000, 20000}, {10000, 15000}, {14000, 16000}, {0, math.MaxInt64}}
	check := func(when string) {
		t.Helper()
		windowsExact(t, f, s.ID, sources, truth, windows, when)
		if got := f.cat.Group(a.Group).WindowMs; got != 1000 {
			t.Fatalf("%s: group window %d, want slot 0's interval 1000", when, got)
		}
	}
	write(b, 10000)
	write(a, 18000)
	check("buffered")
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	reopen()
	check("reopened")
	// A row opened by a's late sample at 14500 spans [14500, 15500): b joins
	// it at 15200, the row fills and flushes keyed before the window that
	// holds b's sample, and a lookback of one group window finds it.
	write(a, 14500)
	write(b, 15200)
	check("a full row keyed before the window")
	reopen()
	check("reopened again")
}

// TestReorganizeSortsMemberRows is the regression for a reorganization
// that keyed a member's per-source record above some of its rows. With
// first-fit MG rows an out-of-order member sits in records whose key order
// is not its time order — b opens a row at 2000 that a joins at 2900, then
// a's late sample at 2100 opens a row of its own, keyed later than the
// first — and putRuns cut the member's rows into runs in the order
// reorganize gathered them. A record keyed above its own rows is behind
// every lookback: windows came back short with a nil error.
func TestReorganizeSortsMemberRows(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "ooo", 1)
	var members []*model.DataSource
	for i := 0; i < 4; i++ {
		members = append(members, f.source(t, s.ID, false, 1000))
	}
	a, b := members[0], members[1]
	var truth []model.Point
	write := func(ds *model.DataSource, ts int64) {
		t.Helper()
		p := model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(len(truth))}}
		truth = append(truth, p)
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	write(b, 2000)
	write(a, 2900)
	write(a, 2100)
	// Then every member about once a second, one sample in five up to 3 s
	// late.
	rng := rand.New(rand.NewSource(7))
	cur := []int64{3000, 3000, 3000, 3000}
	for i := 0; i < 400; i++ {
		k := rng.Intn(len(members))
		ts := cur[k] + 700 + rng.Int63n(600)
		if rng.Intn(5) == 0 {
			ts = cur[k] - 1 - rng.Int63n(3000)
		} else {
			cur[k] = ts
		}
		write(members[k], ts)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := f.store.Reorganize(s.ID, math.MaxInt64)
	if err != nil || res.RowsMoved == 0 {
		t.Fatalf("reorganize: %+v, %v", res, err)
	}
	if _, _, mg := f.store.TreeSizes(); mg != 0 {
		t.Fatalf("%d MG records left after reorganizing everything", mg)
	}
	for _, ds := range members {
		recs, err := readRange(&home{tree: f.store.irts, id: ds.ID}, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, first, _, ok := blobSpan(r); !ok || first != r.ts {
				t.Fatalf("source %d: record keyed %d starts at %d", ds.ID, r.ts, first)
			}
		}
	}
	var windows [][2]int64
	for lo := int64(1500); lo < slices.Max(cur)+1000; lo += 250 {
		windows = append(windows, [2]int64{lo, lo + 500})
	}
	windows = append(windows, [2]int64{math.MinInt64, math.MaxInt64})
	windowsExact(t, f, s.ID, members, truth, windows, "reorganized")
}

// TestMemberAggregateIsDecodeAndFilter: COUNT/SUM/MIN/MAX over one MG
// member, whole and time-bucketed, decode that member's row of each record
// and nothing else of it — and must equal the reference of decoding every
// record whole (a group scan) and keeping the member's rows. Buffered,
// flushed and after a reopen, with the cache on and off, for every member.
func TestMemberAggregateIsDecodeAndFilter(t *testing.T) {
	f, reopen := reopenableFixture(t, Config{BatchSize: 8, BlobCacheBytes: 1 << 20}, 8)
	const ntags = 2
	s := f.schema(t, "member", ntags)
	var members []*model.DataSource
	for i := 0; i < 6; i++ {
		members = append(members, f.source(t, s.ID, false, 1000))
	}
	rng := rand.New(rand.NewSource(35))
	var truth []model.Point
	cur := make([]int64, len(members))
	write := func(n int) {
		for i := 0; i < n; i++ {
			k := rng.Intn(len(members))
			cur[k] += 700 + rng.Int63n(600)
			vals := make([]float64, ntags)
			for tag := range vals {
				if vals[tag] = math.Round(rng.Float64()*1000) / 4; rng.Intn(6) == 0 {
					vals[tag] = model.NullValue
				}
			}
			p := model.Point{Source: members[k].ID, TS: cur[k], Values: vals}
			truth = append(truth, p)
			if err := f.store.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		it, err := f.store.SliceScanOpts(s.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		group := collect(t, it)
		if len(group) != len(truth) {
			t.Fatalf("%s: the group scan returns %d rows, %d were written", when, len(group), len(truth))
		}
		end := slices.Max(cur) + 1
		specs := []AggSpec{
			{T1: math.MinInt64, T2: math.MaxInt64},
			{T1: end / 3, T2: 2 * end / 3},
			{T1: math.MinInt64, T2: math.MaxInt64, BucketMs: 7000},
			{T1: end / 4, T2: end - 5000, BucketMs: 60_000},
		}
		for _, ds := range members {
			var mine []model.Point
			for _, p := range group {
				if p.Source == ds.ID {
					mine = append(mine, p)
				}
			}
			for _, spec := range specs {
				spec.NTags = ntags
				want := refFold(mine, spec)
				for _, opts := range []ScanOptions{{}, {NoCache: true}} {
					spec.Opts = opts
					got, err := f.store.AggregateHistorical(ds.ID, spec)
					if err != nil {
						t.Fatal(err)
					}
					compareAgg(t, fmt.Sprintf("%s: member %d [%d,%d) bucket %d NoCache=%v", when, ds.ID, spec.T1, spec.T2, spec.BucketMs, opts.NoCache), got, want, spec)
				}
			}
		}
		// Through the cache the member aggregates used, the group still reads whole.
		it, err = f.store.SliceScanOpts(s.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, it); len(got) != len(truth) {
			t.Fatalf("%s: after the member aggregates the cached group scan returns %d rows, want %d", when, len(got), len(truth))
		}
	}
	write(300)
	if _, _, mg := f.store.TreeSizes(); mg == 0 {
		t.Fatal("no MG record flushed: the buffered check would read the buffer alone")
	}
	check("buffered")
	write(300)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	reopen()
	check("reopened")
}
