package tsstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"odh/internal/model"
)

// TestSliceHandsOutRecordsAsStored pins the scan's order contract. A walk
// of a whole MG group — a slice — hands out its records in key order, each
// record's rows as the record stores them (an MG record's in slot order), a
// buffered row after every record keyed at or before it; the same sequence
// with the cache off, cold and warm, and at any worker count. A walk of one
// source, or of one MG member, keeps time order.
//
// The group's members report out of slot order within each window, one of
// them twice inside one window (so two MG records overlap), the oldest
// stripe is reorganized into per-source records (RTS for the regular
// member, IRTS for the rest) and the newest rows are still buffered.
func TestSliceHandsOutRecordsAsStored(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, BlobCacheBytes: 1 << 20}, 4)
	s := f.schema(t, "order", 2)
	var members []*model.DataSource
	for i := 0; i < 4; i++ {
		members = append(members, f.source(t, s.ID, i == 0, 1000))
	}
	gid := members[0].Group
	var truth []model.Point
	write := func(slot int, ts int64) {
		t.Helper()
		p := model.Point{Source: members[slot].ID, TS: ts, Values: []float64{float64(len(truth)), float64(slot)}}
		truth = append(truth, p)
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	// Each window's members report in the time order of slots 2, 0, 3, 1.
	round := func(r int64, slots ...int) {
		for _, slot := range slots {
			write(slot, r*1000+[]int64{100, 300, 0, 200}[slot])
		}
	}
	for r := int64(0); r < 10; r++ {
		round(r, 2, 0, 3)
		if r == 4 {
			write(3, 4250) // opens a row of its own, overlapping the one keyed 4000
		}
		round(r, 1)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, err := f.store.Reorganize(s.ID, 3000); err != nil || res.RowsMoved == 0 {
		t.Fatalf("reorganize: %+v, %v", res, err)
	}
	round(10, 2, 0, 3, 1)
	round(11, 2, 0)
	write(1, 9950)

	// The reference: every record of the group's homes, members' first,
	// merged by key, each record's rows as decoded; then the buffered rows.
	type rec struct {
		key  int64
		rows []model.Point
	}
	var recs []rec
	group := f.cat.Group(gid)
	homes := []home{}
	for _, m := range members {
		homes = append(homes, home{tree: f.store.treeFor(m.HistoricalStructure()), id: m.ID})
	}
	homes = append(homes, home{tree: f.store.mg, id: gid})
	overlap, lastMG := false, int64(math.MinInt64)
	for _, h := range homes {
		stored, err := readRange(&h, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stored {
			b, err := DecodeBlob(st.blob, st.ts, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := rec{key: st.ts}
			for i, ts := range b.Timestamps {
				src := h.id
				if h.tree == f.store.mg {
					if i > 0 && b.Slots[i] <= b.Slots[i-1] {
						t.Fatalf("MG record %d stores slot %d after %d", st.ts, b.Slots[i], b.Slots[i-1])
					}
					src = group.Members[b.Slots[i]].ID
					overlap = overlap || ts <= lastMG
				}
				r.rows = append(r.rows, model.Point{Source: src, TS: ts, Values: b.Rows[i]})
			}
			if h.tree == f.store.mg {
				lastMG = max(lastMG, slices.Max(b.Timestamps))
			}
			recs = append(recs, r)
		}
	}
	if !overlap {
		t.Fatal("no two MG records overlap")
	}
	slices.SortStableFunc(recs, func(a, b rec) int { return cmp.Compare(a.key, b.key) })
	var buffered []model.Point
	for _, row := range f.store.shardFor(gid).groups[gid].rows {
		for _, p := range row.samples {
			if p.Values != nil {
				buffered = append(buffered, p)
			}
		}
	}
	if len(buffered) != 3 {
		t.Fatalf("%d rows buffered, want 3", len(buffered))
	}
	slices.SortFunc(buffered, func(a, b model.Point) int { return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Source, b.Source)) })
	expect := func(t1, t2 int64) []model.Point {
		var out []model.Point
		add := func(p model.Point) {
			if p.TS >= t1 && p.TS < t2 {
				out = append(out, p)
			}
		}
		bi := 0
		for _, r := range recs {
			for ; bi < len(buffered) && buffered[bi].TS < r.key; bi++ {
				add(buffered[bi])
			}
			for _, p := range r.rows {
				add(p)
			}
		}
		for _, p := range buffered[bi:] {
			add(p)
		}
		return out
	}

	drain := func(label string, it Iterator, err error) []model.Point {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var out []model.Point
		for _, p := range collect(t, it) {
			out = append(out, p.Clone())
		}
		return out
	}
	byKey := func(pts []model.Point) []model.Point {
		pts = slices.Clone(pts)
		slices.SortFunc(pts, func(a, b model.Point) int { return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.TS, b.TS)) })
		return pts
	}
	for _, w := range [][2]int64{{math.MinInt64, math.MaxInt64}, {2500, 10050}, {4200, 6150}} {
		t1, t2 := w[0], w[1]
		want := expect(t1, t2)
		var inWindow []model.Point
		for _, p := range truth {
			if p.TS >= t1 && p.TS < t2 {
				inWindow = append(inWindow, p)
			}
		}
		if !pointsEqual(byKey(want), byKey(inWindow)) {
			t.Fatalf("[%d,%d): the reference holds %d rows, %d written", t1, t2, len(want), len(inWindow))
		}
		if slices.IsSortedFunc(want, byTS) {
			t.Fatalf("[%d,%d): the stored order is time order; the fixture shows nothing", t1, t2)
		}
		hits := f.store.Stats().BlobCacheHits
		for _, c := range []struct {
			name string
			opts ScanOptions
		}{
			{"no cache", ScanOptions{NoCache: true}},
			{"cold cache", ScanOptions{}},
			{"warm cache", ScanOptions{}},
			{"warm cache, 1 worker", ScanOptions{Workers: 1}},
			{"warm cache, 2 workers", ScanOptions{Workers: 2}},
		} {
			label := fmt.Sprintf("[%d,%d) %s", t1, t2, c.name)
			it, err := f.store.SliceScanOpts(s.ID, t1, t2, nil, c.opts)
			if got := drain(label, it, err); !pointsEqual(got, want) {
				t.Fatalf("%s: slice returns\n%v\nwant, record by record,\n%v", label, got, want)
			}
		}
		if t1 == math.MinInt64 && f.store.Stats().BlobCacheHits == hits {
			t.Fatalf("[%d,%d): the warm scans hit no cached record", t1, t2)
		}
		// A walk of one member, and a walk of a list of them, keep time order.
		var all []model.Point
		for _, m := range members {
			var mine []model.Point
			for _, p := range inWindow {
				if p.Source == m.ID {
					mine = append(mine, p)
				}
			}
			slices.SortStableFunc(mine, byTS)
			all = append(all, mine...)
			it, err := f.store.HistoricalScan(m.ID, t1, t2, nil)
			if got := drain("historical", it, err); !pointsEqual(got, mine) {
				t.Fatalf("[%d,%d): member %d reads %v, want %v", t1, t2, m.GroupSlot, got, mine)
			}
		}
		ids := []int64{members[0].ID, members[1].ID, members[2].ID, members[3].ID}
		it, err := f.store.MultiHistoricalScanOpts(ids, t1, t2, nil, ScanOptions{NoCache: true})
		if got := drain("multi", it, err); !pointsEqual(got, all) {
			t.Fatalf("[%d,%d): the members' multi scan reads %v, want %v", t1, t2, got, all)
		}
	}
}

// TestOwnRecordsKeepTimeOrder: an RTS or IRTS source whose records overlap
// — late rows keyed inside an earlier record's span — reads in time order,
// through its own scan and through a slice, the cache on and off.
func TestOwnRecordsKeepTimeOrder(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, BlobCacheBytes: 1 << 20}, 0)
	s := f.schema(t, "hf", 1)
	rts, irts := f.source(t, s.ID, true, 10), f.source(t, s.ID, false, 10)
	var truth []model.Point
	for _, ds := range []*model.DataSource{rts, irts} {
		var pts []model.Point
		for i := int64(0); i < 16; i++ {
			pts = append(pts, model.Point{Source: ds.ID, TS: i * 10, Values: []float64{float64(i)}})
		}
		for i := int64(0); i < 8; i++ {
			pts = append(pts, model.Point{Source: ds.ID, TS: 5 + i*10, Values: []float64{float64(-i)}})
		}
		if err := f.store.WriteBatch(pts); err != nil {
			t.Fatal(err)
		}
		slices.SortStableFunc(pts, byTS)
		truth = append(truth, pts...)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*model.DataSource{rts, irts} {
		stored, err := readRange(&home{tree: f.store.treeFor(ds.IngestStructure()), id: ds.ID}, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) != 3 {
			t.Fatalf("source %d: %d records, want 3", ds.ID, len(stored))
		}
		if _, _, last, _ := blobSpan(stored[0]); last < stored[1].ts {
			t.Fatalf("source %d: the late record keyed %d does not overlap the first", ds.ID, stored[1].ts)
		}
	}
	for _, opts := range []ScanOptions{{NoCache: true}, {}, {}} {
		var all []model.Point
		for _, ds := range []*model.DataSource{rts, irts} {
			it, err := f.store.MultiHistoricalScanOpts([]int64{ds.ID}, math.MinInt64, math.MaxInt64, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, it)
			all = append(all, got...)
			if !slices.IsSortedFunc(got, byTS) {
				t.Fatalf("source %d (cache off %v) reads out of time order: %v", ds.ID, opts.NoCache, got)
			}
		}
		if !pointsEqual(all, truth) {
			t.Fatalf("cache off %v: sources read %v, want %v", opts.NoCache, all, truth)
		}
		it, err := f.store.SliceScanOpts(s.ID, math.MinInt64, math.MaxInt64, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, it); !pointsEqual(got, truth) {
			t.Fatalf("cache off %v: slice reads %v, want %v", opts.NoCache, got, truth)
		}
	}
}
