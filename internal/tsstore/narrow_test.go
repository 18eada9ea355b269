package tsstore

import (
	"math"
	"slices"
	"testing"

	"odh/internal/model"
)

// TestProjectedRowsAreNarrow pins the row-width contract of Iterator: a
// stored record's row, decoded or served by the cache, holds exactly the
// tags through the last one asked for — unselected tags below it NULL —
// and a buffered row (a dirty read) keeps every tag.
func TestProjectedRowsAreNarrow(t *testing.T) {
	const ntags = 5
	f := newFixture(t, Config{BatchSize: 8, BlobCacheBytes: 1 << 20}, 4)
	s := f.schema(t, "narrow", ntags)
	rts := f.source(t, s.ID, true, 10)
	var members []*model.DataSource
	for range 4 {
		members = append(members, f.source(t, s.ID, true, 900_000)) // MG
	}
	value := func(src, ts int64, tag int) float64 { return float64(src*1000 + ts/10 + int64(tag)*100_000) }
	write := func(src, ts int64) {
		t.Helper()
		vals := make([]float64, ntags)
		for tag := range vals {
			vals[tag] = value(src, ts, tag)
		}
		if err := f.store.Write(model.Point{Source: src, TS: ts, Values: vals}); err != nil {
			t.Fatal(err)
		}
	}
	const stored = 16 // two RTS records
	for i := range stored {
		write(rts.ID, int64(i)*10)
	}
	for round := range 2 {
		for _, m := range members {
			write(m.ID, int64(round)*900_000)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := stored; i < stored+3; i++ {
		write(rts.ID, int64(i)*10) // stays in the ingest buffer
	}

	for _, sel := range [][]int{{1, 3}, {3, 1, 1}, {0}, {2}, {}, nil} {
		width := lastWanted(sel, ntags) + 1
		selected := func(tag int) bool { return sel == nil || slices.Contains(sel, tag) }
		check := func(p model.Point, buffered bool) {
			t.Helper()
			switch {
			case buffered && len(p.Values) != ntags:
				t.Fatalf("sel %v: buffered row %+v is %d tags wide, want all %d", sel, p, len(p.Values), ntags)
			case !buffered && len(p.Values) != width:
				t.Fatalf("sel %v: stored row %+v is %d tags wide, want %d", sel, p, len(p.Values), width)
			}
			for tag := range width {
				want := value(p.Source, p.TS, tag)
				if got := p.Values[tag]; selected(tag) && got != want || !selected(tag) && !buffered && !model.IsNull(got) {
					t.Fatalf("sel %v: row %+v tag %d = %v", sel, p, tag, got)
				}
			}
		}
		for pass := range 2 { // the second pass is served by the cache
			hits := f.store.Stats().BlobCacheHits
			it, err := f.store.HistoricalScan(rts.ID, math.MinInt64, math.MaxInt64, sel)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, it)
			if len(got) != stored+3 {
				t.Fatalf("sel %v: %d rows, want %d", sel, len(got), stored+3)
			}
			for i, p := range got {
				check(p, i >= stored)
			}
			it, err = f.store.SliceScanOpts(s.ID, 0, 900_001, sel, ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got = collect(t, it)
			if len(got) != stored+3+2*len(members) {
				t.Fatalf("sel %v: slice of %d rows, want %d", sel, len(got), stored+3+2*len(members))
			}
			for _, p := range got {
				check(p, p.Source == rts.ID && p.TS >= stored*10)
			}
			if pass == 1 && f.store.Stats().BlobCacheHits == hits {
				t.Fatalf("sel %v: the second pass was not served by the cache", sel)
			}
		}
	}
}

// TestProjectedDecodeAllocatesItsWidth: a decode of one tag of a full
// 128-member, 15-tag MG record allocates less than the full-width row
// backing alone (128 × 15 float64s) that it used to fill with NULLs.
func TestProjectedDecodeAllocatesItsWidth(t *testing.T) {
	const members, ntags = 128, 15
	present := make([]bool, members)
	rows := make([][]float64, members)
	offsets := make([]int64, members)
	for slot := range members {
		present[slot] = true
		offsets[slot] = int64(slot) * 7
		rows[slot] = make([]float64, ntags)
		for tag := range rows[slot] {
			rows[slot][tag] = float64(slot*ntags + tag)
		}
	}
	blob := EncodeMG(present, rows, offsets, ntags, encodeOpts{})
	decode := func(wantTags []int) int64 {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				batch, err := DecodeBlob(blob, 1000, wantTags)
				if err != nil || len(batch.Rows) != members || batch.Rows[members-1][1] != float64((members-1)*ntags+1) {
					panic("bad decode")
				}
			}
		}).AllocedBytesPerOp()
	}
	const fullBacking = members * ntags * 8
	one, all := decode([]int{1}), decode(nil)
	t.Logf("a decode of tag 1 allocates %d B, of every tag %d B", one, all)
	if all < fullBacking {
		t.Fatalf("a full decode allocates %d B, less than its %d B of rows: the measure is wrong", all, fullBacking)
	}
	if one >= fullBacking {
		t.Fatalf("a decode of tag 1 allocates %d B, not less than the %d B full-width backing", one, fullBacking)
	}
}

// TestFoldAllocatesPerGroupNotPerRecord: an aggregate whose records all
// fold from their header summaries allocates per group and per call, not
// per record — the summary is parsed into one reused buffer — so 100
// records cost as many allocations as 10.
func TestFoldAllocatesPerGroupNotPerRecord(t *testing.T) {
	// Under the race detector sync.Pool drops pooled walk scratch at random,
	// which moves either count by a few; averaged over many calls, a few
	// drops stay under the margin below.
	const batch, runs = 8, 400
	perCall := func(records int) float64 {
		f := newFixture(t, Config{BatchSize: batch}, 0)
		s := f.schema(t, "fold", 3)
		src := f.source(t, s.ID, true, 10)
		pts := make([]model.Point, records*batch)
		for i := range pts {
			pts[i] = model.Point{Source: src.ID, TS: int64(i) * 10, Values: []float64{float64(i), float64(i % 5), math.NaN()}}
		}
		if err := f.store.WriteBatch(pts); err != nil {
			t.Fatal(err)
		}
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
		spec := AggSpec{T1: math.MinInt64, T2: math.MaxInt64, NTags: 3, WantTags: []int{0, 1}}
		hits := f.store.Stats().SummaryHits
		allocs := testing.AllocsPerRun(runs, func() {
			res, err := f.store.AggregateHistorical(src.ID, spec)
			if err != nil || len(res.Groups) != 1 || res.Groups[0].Rows != int64(len(pts)) {
				t.Fatalf("%d records: %+v, %v", records, res, err)
			}
		})
		if got, want := f.store.Stats().SummaryHits-hits, int64((runs+1)*records); got != want {
			t.Fatalf("%d records: %d summary folds over %d calls, want %d", records, got, runs+1, want)
		}
		return allocs
	}
	small, large := perCall(10), perCall(100)
	t.Logf("allocations per aggregate: %.0f at 10 records, %.0f at 100", small, large)
	// A per-record allocation adds 90.
	if raceEnabled && large <= small+8 {
		return
	}
	if small != large {
		t.Fatalf("an aggregate allocates %.0f times over 10 records and %.0f over 100", small, large)
	}
}
