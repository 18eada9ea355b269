package tsstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"odh/internal/catalog"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
)

// statsCell is a source's statistics entry as its leaf cell holds it: the
// key, then the record (internal/catalog's codec: six varints, a flag
// byte — 1 = HasCold, 2 = Unknown — and the HotSpanMs and ColdLastTS
// varints).
func statsCell(id int64, st model.SourceStats) []byte {
	b := keyenc.AppendInt64(nil, id)
	for _, v := range []int64{st.BatchCount, st.PointCount, st.BlobBytes, st.FirstTS, st.LastTS, st.MaxSpanMs} {
		b = binary.AppendVarint(b, v)
	}
	var flags byte
	if st.HasCold {
		flags |= 1
	}
	if st.Unknown {
		flags |= 2
	}
	return binary.AppendVarint(binary.AppendVarint(append(b, flags), st.HotSpanMs), st.ColdLastTS)
}

// damageStatsEntry makes a source's statistics record undecodable where it
// is stored, leaving its page and its tree sound: every byte of the record
// becomes a varint continuation byte.
func damageStatsEntry(t *testing.T, f *fixture, id int64) {
	t.Helper()
	cell := statsCell(id, f.cat.Stats(id))
	key := len(keyenc.AppendInt64(nil, id))
	f.page.BeginWrite()
	defer f.page.EndWrite()
	damaged := 0
	for pid := pagestore.PageID(1); uint32(pid) < f.page.NumPages(); pid++ {
		fr, err := f.page.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		for d := fr.Data(); ; damaged++ {
			i := bytes.Index(d, cell)
			if i < 0 {
				break
			}
			for j := i + key; j < i+len(cell); j++ {
				d[j] = 0x80
			}
			fr.MarkDirty()
		}
		fr.Unpin()
	}
	if damaged == 0 {
		t.Fatalf("source %d: statistics entry not found in any page", id)
	}
}

// TestUnreadableStatsEntryHidesNoRows: scans eliminate a source whose
// statistics count no batch and bound their lookback by its span bounds, so
// an entry that does not decode must not read as "nothing persisted". A
// strict open names it; a lenient open marks it Unknown, and reads of the
// source — eliminated at no window, looked back over from the start of its
// home — return the oracle's rows until the upgrade pass re-derives it.
func TestUnreadableStatsEntryHidesNoRows(t *testing.T) {
	f, s, truth := coldThenHot(t, Config{}, 3)
	var victim int64
	for id := range truth {
		victim = max(victim, id)
	}
	damageStatsEntry(t, f, victim)

	_, err := catalog.Open(f.page, 0)
	var cse *catalog.CorruptStatsError
	if !errors.As(err, &cse) || cse.ID != victim || !errors.Is(err, pagestore.ErrCorrupt) {
		t.Fatalf("strict open over a damaged statistics entry: %v, want a CorruptStatsError naming source %d", err, victim)
	}

	cat, err := catalog.OpenLenient(f.page, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := cat.Stats(victim); !st.Unknown {
		t.Fatalf("lenient open: source %d has statistics %+v, want Unknown", victim, st)
	}
	store, err := Open(f.page, cat, Config{BatchSize: 128, LenientScan: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, w := range [][2]int64{{1_000_000, 1_005_000}, {511_000, 513_000}, {math.MinInt64, math.MaxInt64}} {
			want := inWindow(truth, w[0], w[1])
			it, err := store.SliceScanOpts(s.ID, w[0], w[1], nil, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameBySource(t, fmt.Sprintf("%s: slice [%d,%d)", when, w[0], w[1]), bySource(collect(t, it)), want)
			res, err := store.AggregateSlice(s.ID, AggSpec{T1: w[0], T2: w[1], NTags: 4, ByID: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != len(want) {
				t.Fatalf("%s: aggregate [%d,%d): %d groups, want %d", when, w[0], w[1], len(res.Groups), len(want))
			}
			for _, g := range res.Groups {
				if g.Rows != int64(len(want[g.ID])) {
					t.Fatalf("%s: aggregate [%d,%d): source %d has %d rows, want %d", when, w[0], w[1], g.ID, g.Rows, len(want[g.ID]))
				}
			}
		}
	}
	check("unknown statistics")
	if _, _, stale, err := store.VerifyBlobs(); err != nil || len(stale) != 1 || stale[0].Source != victim {
		t.Fatalf("fsck over unknown statistics: stale=%v err=%v, want source %d", stale, err, victim)
	}

	// A write merges into the unknown entry without making it look known,
	// also to the next open.
	late := model.Point{Source: victim, TS: 2_000_000, Values: []float64{1, 2, 3, 4}}
	truth[victim] = append(truth[victim], late)
	if err := store.Write(late); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if cat, err = catalog.Open(f.page, 0); err != nil || !cat.Stats(victim).Unknown {
		t.Fatalf("reopen after a write: %+v, %v; want the entry still Unknown", cat.Stats(victim), err)
	}
	if store, err = Open(f.page, cat, Config{BatchSize: 128}); err != nil {
		t.Fatal(err)
	}
	check("unknown statistics, reopened")

	if up, err := store.UpgradeBlobs(); err != nil || up.StatsMoved == 0 {
		t.Fatalf("UpgradeBlobs = %+v, %v; want the unknown entry re-derived", up, err)
	}
	st := cat.Stats(victim)
	if st.Unknown || st.BatchCount != 10 || st.PointCount != int64(len(truth[victim])) || st.LastTS != late.TS {
		t.Fatalf("re-derived statistics %+v", st)
	}
	if _, corrupt, stale, err := store.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 {
		t.Fatalf("fsck after upgrade: corrupt=%v stale=%v err=%v", corrupt, stale, err)
	}
	check("re-derived statistics")
}

// TestUpgradeRederivesStatistics: span bounds that understate a record's
// reach lose rows without an error, so fsck names the home, UpgradeBlobs
// repairs it (and drifted counts with it), and a second pass finds nothing
// to do. Statistics as a store written before the per-tier bounds holds
// them — every record as wide as the widest, non-hot records anywhere —
// read as before the bounds and are tight after the upgrade: the slice then
// looks up as many pages as over a freshly written store.
func TestUpgradeRederivesStatistics(t *testing.T) {
	const nsrc = 3
	f, s, truth := coldThenHot(t, Config{DisableCompression: true}, nsrc)
	fresh := map[int64]model.SourceStats{}
	var victim int64
	for id := range truth {
		fresh[id] = f.cat.Stats(id)
		victim = max(victim, id)
	}
	const t1, t2 = 1_000_000, 1_005_000
	slice := func() (map[int64][]model.Point, int64) {
		t.Helper()
		var rows []model.Point
		n := sliceLookups(t, f.page, f.store.irts, func() {
			it, err := f.store.SliceScanOpts(s.ID, t1, t2, nil, ScanOptions{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			rows = collect(t, it)
		})
		return bySource(rows), n
	}
	_, freshLookups := slice()

	// Understated: the last hot record is keyed 40 s before the window.
	shrunk := fresh[victim]
	shrunk.HotSpanMs = 10_000
	shrunk.PointCount += 5
	if moved, err := f.cat.SetStats(victim, shrunk); err != nil || !moved {
		t.Fatal(moved, err)
	}
	if got, _ := slice(); len(got[victim]) != 0 {
		t.Fatalf("a slice under understated bounds still found %d rows of source %d: the test shrinks nothing", len(got[victim]), victim)
	}
	_, corrupt, stale, err := f.store.VerifyBlobs()
	if err != nil || len(corrupt) != 0 || len(stale) != 1 || stale[0].Source != victim || stale[0].Tree != "ts.irts" {
		t.Fatalf("fsck over understated bounds: corrupt=%v stale=%v err=%v, want source %d named once", corrupt, stale, err, victim)
	}

	// As written before the per-tier bounds.
	for id, st := range fresh {
		if id != victim {
			st.HotSpanMs, st.HasCold, st.ColdLastTS = st.MaxSpanMs, true, math.MaxInt64
			if _, err := f.cat.SetStats(id, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, stale, err = f.store.VerifyBlobs(); err != nil || len(stale) != 1 {
		t.Fatalf("fsck over pre-bound statistics: stale=%v err=%v, want only source %d", stale, err, victim)
	}

	up, err := f.store.UpgradeBlobs()
	if err != nil || up.StatsMoved != nsrc || up.Rewritten != 0 {
		t.Fatalf("UpgradeBlobs = %+v, %v; want the statistics of %d homes moved and no record rewritten", up, err, nsrc)
	}
	for id, want := range fresh {
		// The hot bound may come out tighter than the incremental one, which
		// also counted the hot records the cold pass consumed.
		got := f.cat.Stats(id)
		if got.HotSpanMs > want.HotSpanMs {
			t.Errorf("source %d: re-derived HotSpanMs %d above the incremental %d", id, got.HotSpanMs, want.HotSpanMs)
		}
		if got.HotSpanMs = want.HotSpanMs; got != want {
			t.Errorf("source %d: re-derived statistics %+v, want %+v", id, got, want)
		}
	}
	if _, corrupt, stale, err = f.store.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 {
		t.Fatalf("fsck after upgrade: corrupt=%v stale=%v err=%v", corrupt, stale, err)
	}
	got, n := slice()
	sameBySource(t, "slice after upgrade", got, inWindow(truth, t1, t2))
	if n != freshLookups {
		t.Errorf("slice after upgrade looked up %d pages, over the freshly written store %d", n, freshLookups)
	}
	if again, err := f.store.UpgradeBlobs(); err != nil || again.StatsMoved != 0 || again.Rewritten != 0 {
		t.Fatalf("second UpgradeBlobs = %+v, %v; want nothing to do", again, err)
	}
}

// TestSpanBoundsUnderMutation is the property behind the bounded lookback:
// whatever order out-of-order and duplicate-timestamp ingest, late and
// repeated MG samples (exact repeats of a member's newest timestamp too),
// flushes, coalescing, cold and stub passes, group reorganization and the
// upgrade pass run in, after every one of them the statistics of every home
// account for each of its records (the fsck check), and short windows at
// random places read exactly the rows written there — through the slice
// scan, the historical scan and the slice aggregate, against a filter of
// everything written and of a full-history scan. And every maintenance
// pass is idempotent: run again at once with the same policy, it rewrites
// nothing.
func TestSpanBoundsUnderMutation(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { spanBoundsRun(t, seed) })
	}
}

func spanBoundsRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	f := newFixture(t, Config{BatchSize: 16, maxOpenMGRows: 3, BlobCacheBytes: 64 << 10}, 4)
	s := f.schema(t, "span", 2)
	type stream struct {
		ds  *model.DataSource
		cur int64 // newest timestamp written
		mg  bool  // a group member
	}
	var streams []*stream
	streams = append(streams, &stream{ds: f.source(t, s.ID, true, 100)})
	for i := 0; i < 2; i++ {
		streams = append(streams, &stream{ds: f.source(t, s.ID, false, 100)})
	}
	for i := 0; i < 4; i++ {
		streams = append(streams, &stream{ds: f.source(t, s.ID, false, 1500), mg: true})
	}
	group := streams[len(streams)-1].ds.Group
	if group == 0 || streams[0].ds.Group != 0 {
		t.Fatal("the fixture's sources did not split into per-source and MG ingest")
	}

	var truth []model.Point
	floor := int64(math.MinInt64) // rows below it were stubbed away
	write := func(st *stream, ts int64) {
		p := model.Point{Source: st.ds.ID, TS: ts, Values: []float64{float64(len(truth)), float64(len(truth) % 7)}}
		truth = append(truth, p.Clone())
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
		st.cur = max(st.cur, ts)
	}
	burst := func() {
		st := streams[rng.Intn(len(streams))]
		for n := 1 + rng.Intn(24); n > 0; n-- {
			switch r := rng.Intn(100); {
			case st.ds.Regular: // on the grid, with gaps
				step := int64(100)
				if r < 10 {
					step *= int64(2 + rng.Intn(30))
				}
				write(st, st.cur+step)
			case !st.mg && r < 20: // repeats the newest timestamp
				write(st, st.cur)
			case !st.mg && r < 30: // out of order
				write(st, st.cur-1-rng.Int63n(3000))
			case !st.mg:
				write(st, st.cur+rng.Int63n(150))
			default: // an MG member: its newest timestamp again, the same window, a late one, or the next
				ts := st.cur + 1100 + rng.Int63n(800)
				switch {
				case r < 8:
					ts = st.cur
				case r < 15:
					ts = st.cur + 1 + rng.Int63n(200)
				case r < 30:
					ts = st.cur - 1 - rng.Int63n(6000)
				}
				write(st, ts)
			}
		}
	}
	oldest := func() int64 {
		ts := int64(math.MaxInt64)
		for _, st := range streams {
			ts = min(ts, st.cur)
		}
		return ts
	}
	// A maintenance op draws its policy and returns the pass, which the
	// loop below runs twice.
	type pass func() (MaintenanceResult, error)
	ops := []struct {
		name   string
		weight int
		draw   func() pass
	}{
		{"burst", 55, func() pass { burst(); return nil }},
		{"flush", 8, func() pass { return func() (MaintenanceResult, error) { return MaintenanceResult{}, f.store.Flush() } }},
		{"coalesce", 8, func() pass { return func() (MaintenanceResult, error) { return f.store.Coalesce(s.ID) } }},
		{"cold", 8, func() pass {
			pol, now := TierPolicy{ColdAfterMs: 1 + rng.Int63n(20_000)}, oldest()
			return func() (MaintenanceResult, error) { return f.store.TierSchema(s.ID, pol, now) }
		}},
		// No write lands more than 6 s behind its stream's newest, so nothing
		// is ever written below a stub cutoff.
		{"cold+stub", 5, func() pass {
			now, after := oldest(), 10_000+rng.Int63n(20_000)
			pol := TierPolicy{ColdAfterMs: after / 2, StubAfterMs: after}
			floor = max(floor, now-after)
			return func() (MaintenanceResult, error) { return f.store.TierSchema(s.ID, pol, now) }
		}},
		{"reorganize", 8, func() pass {
			upTo := oldest() - rng.Int63n(20_000)
			return func() (MaintenanceResult, error) { return f.store.Reorganize(s.ID, upTo) }
		}},
		{"upgrade", 8, func() pass { return f.store.UpgradeBlobs }},
	}
	total := 0
	for _, op := range ops {
		total += op.weight
	}

	sorted := func(pts []model.Point) []model.Point {
		sort.Slice(pts, func(i, j int) bool {
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
	filter := func(pts []model.Point, src, lo, hi int64) []model.Point {
		var out []model.Point
		for _, p := range pts {
			if p.TS >= lo && p.TS < hi && (src == 0 || p.Source == src) {
				out = append(out, p)
			}
		}
		return sorted(out)
	}
	scan := func(what string, it Iterator, err error) []model.Point {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		pts, err := drainPoints(it)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return sorted(pts)
	}
	check := func(after string) {
		t.Helper()
		if _, corrupt, stale, err := f.store.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 {
			t.Fatalf("%s: fsck: corrupt=%v stale=%v err=%v", after, corrupt, stale, err)
		}
		it, err := f.store.SliceScanOpts(s.ID, floor, math.MaxInt64, nil, ScanOptions{NoCache: true})
		full := scan(after+": full-history scan", it, err)
		if want := filter(truth, 0, floor, math.MaxInt64); !pointsEqual(full, want) {
			t.Fatalf("%s: the full-history scan returns %d rows, %d were written", after, len(full), len(want))
		}
		for k := 0; k < 6 && len(full) > 0; k++ {
			lo := full[rng.Intn(len(full))].TS - rng.Int63n(400)
			if k%3 == 0 {
				lo = oldest() - rng.Int63n(30_000)
			}
			lo = max(lo, floor)
			hi := lo + 1 + rng.Int63n(2000)
			opts := ScanOptions{NoCache: k%2 == 0}
			what := fmt.Sprintf("%s: [%d,%d)", after, lo, hi)
			want := filter(full, 0, lo, hi)

			it, err := f.store.SliceScanOpts(s.ID, lo, hi, nil, opts)
			if got := scan(what+" slice", it, err); !pointsEqual(got, want) {
				t.Fatalf("%s: slice scan returns %d rows %v, want %d rows %v", what, len(got), got, len(want), want)
			}
			src := streams[rng.Intn(len(streams))].ds.ID
			it, err = f.store.MultiHistoricalScanOpts([]int64{src}, lo, hi, nil, opts)
			if got, want := scan(what+" historical", it, err), filter(full, src, lo, hi); !pointsEqual(got, want) {
				t.Fatalf("%s: historical scan of %d returns %d rows %v, want %d rows %v", what, src, len(got), got, len(want), want)
			}
			res, err := f.store.AggregateSlice(s.ID, AggSpec{T1: lo, T2: hi, NTags: 2, ByID: true, Opts: opts})
			if err != nil {
				t.Fatalf("%s: aggregate: %v", what, err)
			}
			rows, sums := map[int64]int64{}, map[int64]float64{}
			for _, p := range want {
				rows[p.Source]++
				sums[p.Source] += p.Values[0]
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
	for i := 0; i < 250; i++ {
		r := rng.Intn(total)
		for _, op := range ops {
			if r -= op.weight; r < 0 {
				run := op.draw()
				if run != nil {
					if _, err := run(); err != nil {
						t.Fatalf("op %d (%s): %v", i, op.name, err)
					}
				}
				check(fmt.Sprintf("op %d (%s)", i, op.name))
				if run != nil {
					again, err := run()
					if err != nil || again.Deleted+again.Rewritten+again.Stubbed+again.Dropped+again.RowsMoved+again.StatsMoved != 0 {
						t.Fatalf("op %d (%s) run again: %+v, %v; want nothing rewritten", i, op.name, again, err)
					}
				}
				break
			}
		}
	}
	// The run met what it is about: records of every tier, reorganized
	// history, and both values of HasCold.
	tiers, err := f.store.TierStats()
	if err != nil || tiers.HotBlobs == 0 || tiers.ColdBlobs == 0 {
		t.Fatalf("tiers at the end: %+v, %v", tiers, err)
	}
}
