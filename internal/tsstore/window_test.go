package tsstore

import (
	"math"
	"math/rand"
	"testing"

	"odh/internal/btree"
	"odh/internal/compress"
	"odh/internal/keyenc"
	"odh/internal/model"
)

// A scan pays for its window, not for its records. These tests pin the
// three rules that make it so: a record the window's span misses is never
// decoded, a record it cuts is decoded for a row range — of an MG record in
// a walk of one member, for that member's row — that yields exactly the
// rows of a full decode, and only a full decode enters the cache.

// windowRows is what a consumer gets from a decode of one record for the
// window [lo, hi): the batch's rows after eachRow's filter.
func windowRows(batch *DecodedBatch, lo, hi int64) []model.Point {
	w := &walker{slot: allMembers}
	for _, slot := range batch.Slots { // MG: every slot is a known member
		for slot >= len(w.members) {
			w.members = append(w.members, int64(len(w.members)+1))
		}
	}
	var out []model.Point
	w.eachRow(&walkRec{home: &home{id: 7}}, batch, lo, hi, func(src, ts int64, vals []float64) {
		out = append(out, model.Point{Source: src, TS: ts, Values: vals})
	})
	return out
}

// checkWindowedDecode fails unless decoding the record behind h for the
// window [lo, hi) hands a consumer exactly the rows a full decode does.
func checkWindowedDecode(t testing.TB, h *blobHeader, baseTS int64, wantTags []int, full *DecodedBatch, lo, hi int64) {
	t.Helper()
	part, err := h.decode(baseTS, wantTags, allMembers, lo, hi-1)
	if err != nil {
		t.Fatalf("window [%d,%d) wantTags %v: full decode succeeded, range decode failed: %v", lo, hi, wantTags, err)
	}
	if len(part.Timestamps) != len(part.Rows) || len(part.Rows) > len(full.Rows) {
		t.Fatalf("window [%d,%d): range decode has %d timestamps, %d rows; the record has %d", lo, hi, len(part.Timestamps), len(part.Rows), len(full.Rows))
	}
	if got, want := windowRows(part, lo, hi), windowRows(full, lo, hi); !pointsEqual(got, want) {
		t.Fatalf("window [%d,%d) wantTags %v: range decode yields %d rows, full decode then filter %d\n got %v\nwant %v", lo, hi, wantTags, len(got), len(want), got, want)
	}
	if lo == math.MinInt64 && hi == math.MaxInt64 && !h.whole(part) {
		t.Fatalf("a decode of every row does not count as whole (%d of %d rows)", len(part.Rows), len(full.Rows))
	}
}

// TestWindowedDecodeIsFullDecodeRestricted: for random RTS and IRTS
// records — unsorted and duplicate timestamps, NULL-heavy bitmaps and NULL
// runs, hot and cold codecs, lossy policies, and records of 129, 256, 257
// and 1,024 rows whose runs cross segment boundaries — random tag
// selections and random windows, the range decode yields
// full-decode-then-filter.
func TestWindowedDecodeIsFullDecodeRestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const ntags = 4
	partial := 0
	for round := 0; round < 400; round++ {
		n := rng.Intn(200)
		switch round % 20 {
		case 0:
			n = rng.Intn(3)
		case 5, 15:
			n = []int{129, 256, 257, 1024}[round/10%4]
		}
		regular := rng.Intn(2) == 0
		interval := int64(1 + rng.Intn(50))
		base := int64(rng.Intn(2000)) - 1000
		nullShare := []float64{0, 0.1, 0.9, 1}[rng.Intn(4)]
		runLen := 0 // NULL runs of runLen rows, offset per tag
		if rng.Intn(3) == 0 {
			nullShare, runLen = 0, 1+rng.Intn(150)
		}
		pts := make([]model.Point, n)
		ts := base
		for i := range pts {
			switch {
			case regular:
				ts = base + int64(i)*interval
			case rng.Intn(10) == 0:
				ts -= int64(rng.Intn(100)) // out of order
			case rng.Intn(4) != 0: // else: a duplicate timestamp
				ts += int64(rng.Intn(30))
			}
			vals := make([]float64, ntags)
			for tag := range vals {
				switch {
				case rng.Float64() < nullShare || runLen > 0 && (i+37*tag)/runLen%2 == 0:
					vals[tag] = model.NullValue
				case tag == 0:
					vals[tag] = 42 // constant: linear
				case tag == 1:
					vals[tag] = float64(3 * i) // integral ramp: delta when cold
				case tag == 2:
					vals[tag] = 20 + 0.01*float64(i) + 0.001*rng.Float64() // smooth
				default:
					vals[tag] = rng.Float64() * 100
				}
			}
			pts[i] = model.Point{TS: ts, Values: vals}
		}
		opts := encodeOpts{cold: rng.Intn(2) == 0, disable: rng.Intn(8) == 0}
		if rng.Intn(2) == 0 {
			opts.subBucketMs = 60
		}
		if rng.Intn(3) == 0 {
			opts.policies = []compress.Policy{{}, {MaxDev: 0.5}, {MaxDev: 0.01}, {MaxDev: 2}}
		}
		var blob []byte
		if regular {
			blob = EncodeRTS(pts, ntags, interval, opts)
		} else {
			blob = EncodeIRTS(pts, ntags, opts)
		}
		h, ok := parseBlobHeader(blob)
		if !ok {
			t.Fatalf("round %d: encoded blob does not parse", round)
		}
		for _, wantTags := range [][]int{nil, {}, {rng.Intn(ntags)}, {3, 0}, {1, 9, -1}} {
			full, err := h.decodeAll(base, wantTags)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
			checkWindowedDecode(t, &h, base, wantTags, full, lo, hi)
			for q := 0; q < 8; q++ {
				lo = base - 100 + int64(rng.Intn(int(interval)*(n+1)+200))
				hi = lo + 1 + int64(rng.Intn(400))
				switch q {
				case 0:
					lo = math.MinInt64
				case 1:
					hi = math.MaxInt64
				}
				checkWindowedDecode(t, &h, base, wantTags, full, lo, hi)
				if part, _ := h.decode(base, wantTags, allMembers, lo, hi-1); !h.whole(part) {
					partial++
				}
			}
		}
	}
	if partial == 0 {
		t.Fatal("no window ever decoded less than a whole record")
	}
}

// memberRows is what a decode of an MG record yields for one member slot
// and the window [lo, hi): the slot's rows with timestamps in it.
func memberRows(batch *DecodedBatch, slot int, lo, hi int64) []model.Point {
	var out []model.Point
	for i, s := range batch.Slots {
		if ts := batch.Timestamps[i]; s == slot && ts >= lo && ts < hi {
			out = append(out, model.Point{TS: ts, Values: batch.Rows[i]})
		}
	}
	return out
}

// checkMemberDecode fails unless decoding the MG record behind h for one
// member slot and the window [lo, hi) yields exactly the full decode's rows
// of that slot in the window, bit for bit, and counts as whole exactly when
// it holds every row the record reports.
func checkMemberDecode(t testing.TB, h *blobHeader, baseTS int64, wantTags []int, full *DecodedBatch, slot int, lo, hi int64) {
	t.Helper()
	part, err := h.decode(baseTS, wantTags, slot, lo, hi-1)
	if err != nil {
		t.Fatalf("slot %d window [%d,%d) wantTags %v: full decode succeeded, member decode failed: %v", slot, lo, hi, wantTags, err)
	}
	if len(part.Timestamps) != len(part.Rows) || len(part.Slots) != len(part.Rows) {
		t.Fatalf("slot %d: member decode has %d timestamps, %d slots, %d rows", slot, len(part.Timestamps), len(part.Slots), len(part.Rows))
	}
	got, want := memberRows(part, slot, lo, hi), memberRows(full, slot, lo, hi)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i].TS == want[i].TS && len(got[i].Values) == len(want[i].Values)
		for j := 0; same && j < len(got[i].Values); j++ {
			same = math.Float64bits(got[i].Values[j]) == math.Float64bits(want[i].Values[j])
		}
	}
	if !same {
		t.Fatalf("slot %d window [%d,%d) wantTags %v: member decode yields %v, full decode then filter %v", slot, lo, hi, wantTags, got, want)
	}
	if len(part.Rows) > len(want) {
		t.Fatalf("slot %d window [%d,%d): a member decode materialised %d rows for %d of the member's", slot, lo, hi, len(part.Rows), len(want))
	}
	if h.whole(part) != (len(part.Rows) == len(full.Rows)) {
		t.Fatalf("slot %d: whole() = %v for %d of %d reported rows", slot, h.whole(part), len(part.Rows), len(full.Rows))
	}
}

// TestMemberDecodeIsFullDecodeRestricted: for random MG records — 1 to 130
// members, some missing, NULL-heavy bitmaps, lossy, cold and raw codecs —
// every slot (those past the member count too), random tag
// selections and random windows, the member decode yields the full decode
// filtered to the slot and the window, and the cache's whole() rule holds.
// A slot the bitmap lacks decodes nothing: with everything behind the
// bitmap cut off it still yields no rows and no error, and a record's head
// says so.
func TestMemberDecodeIsFullDecodeRestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const ntags = 4
	one, whole := 0, 0
	for round := 0; round < 300; round++ {
		members := 1 + rng.Intn(130)
		presentShare := []float64{0.05, 0.5, 0.9, 1}[rng.Intn(4)]
		nullShare := []float64{0, 0.1, 0.9, 1}[rng.Intn(4)]
		window := int64(1 + rng.Intn(30_000))
		base := int64(rng.Intn(2000)) - 1000
		present := make([]bool, members)
		rows := make([][]float64, members)
		offsets := make([]int64, members)
		reported := 0
		for slot := range present {
			if present[slot] = rng.Float64() < presentShare; present[slot] {
				reported++
			}
			offsets[slot] = rng.Int63n(window)
			rows[slot] = make([]float64, ntags)
			for tag := range rows[slot] {
				switch {
				case rng.Float64() < nullShare:
					rows[slot][tag] = model.NullValue
				case tag == 0:
					rows[slot][tag] = 42
				case tag == 1:
					rows[slot][tag] = float64(3 * slot)
				case tag == 2:
					rows[slot][tag] = 20 + 0.01*float64(slot) + 0.001*rng.Float64()
				default:
					rows[slot][tag] = rng.Float64() * 100
				}
			}
		}
		opts := encodeOpts{cold: rng.Intn(2) == 0, disable: rng.Intn(8) == 0}
		if rng.Intn(3) == 0 {
			opts.policies = []compress.Policy{{}, {MaxDev: 0.5}, {MaxDev: 0.01}, {MaxDev: 2}}
		}
		blob := EncodeMG(present, rows, offsets, ntags, opts)
		h, ok := parseBlobHeader(blob)
		if !ok {
			t.Fatalf("round %d: encoded blob does not parse", round)
		}
		cut, _ := parseBlobHeader(blob[:h.payOff+bitmapLen(members)])
		head, _ := parseBlobHeader(blob[:min(len(blob), btree.ChainChunk)])
		for _, wantTags := range [][]int{nil, {}, {rng.Intn(ntags)}, {3, 0}, {1, 9, -1}} {
			full, err := h.decodeAll(base, wantTags)
			if err != nil || len(full.Rows) != reported || !h.whole(full) {
				t.Fatalf("round %d: full decode: %d of %d rows, %v", round, len(full.Rows), reported, err)
			}
			for slot := 0; slot < members+3; slot++ {
				lacks := slot >= members || !present[slot]
				if h.lacksMember(slot) != lacks || head.payOff != 0 && head.lacksMember(slot) != lacks {
					t.Fatalf("round %d slot %d: lacksMember says %v, the record %v", round, slot, h.lacksMember(slot), lacks)
				}
				if lacks {
					if none, err := cut.decode(base, wantTags, slot, math.MinInt64, math.MaxInt64); err != nil || len(none.Rows) != 0 {
						t.Fatalf("round %d slot %d: a slot the bitmap lacks read past the bitmap: %d rows, %v", round, slot, len(none.Rows), err)
					}
				}
				checkMemberDecode(t, &h, base, wantTags, full, slot, math.MinInt64, math.MaxInt64)
				for q := 0; q < 3; q++ {
					lo := base - 100 + rng.Int63n(window+200)
					hi := lo + 1 + rng.Int63n(window/2+1)
					checkMemberDecode(t, &h, base, wantTags, full, slot, lo, hi)
				}
				if !lacks {
					part, _ := h.decode(base, wantTags, slot, math.MinInt64, math.MaxInt64)
					if len(part.Rows) == 1 {
						one++
					}
					if h.whole(part) {
						whole++
					}
				}
			}
		}
	}
	if one == 0 || whole == 0 {
		t.Fatalf("%d one-row member decodes, %d whole ones: the generator misses a case", one, whole)
	}
}

// TestRTSRowRangeExtremes: the index arithmetic neither overflows nor
// disagrees with the timestamps a decode reconstructs.
func TestRTSRowRangeExtremes(t *testing.T) {
	cases := []struct {
		base, interval int64
		count          int
		lo, last       int64
	}{
		{0, 10, 5, math.MinInt64, math.MaxInt64},
		{math.MinInt64 + 5, 1 << 40, 100, math.MaxInt64 - 3, math.MaxInt64},
		{math.MaxInt64 - 40, 10, 5, math.MinInt64, 0},
		{math.MaxInt64 - 40, 10, 5, math.MaxInt64 - 15, math.MaxInt64},
		{math.MaxInt64 - 40, 10, 6, 0, math.MaxInt64}, // would wrap: full range
		{-7, 3, 10, -7, -7},
		{-7, 3, 10, -6, -5},
		{100, 0, 4, 0, 50},  // no interval: full range
		{100, -5, 4, 0, 50}, // negative interval: full range
		{0, 7, 0, 0, 100},
	}
	for _, c := range cases {
		i0, i1 := rtsRowRange(c.base, c.interval, c.count, c.lo, c.last)
		if i0 < 0 || i0 > i1 || i1 > c.count {
			t.Fatalf("%+v: range [%d,%d) outside the record", c, i0, i1)
		}
		for i := 0; i < c.count; i++ {
			ts := c.base + int64(i)*c.interval // wraps as decode's does
			if in := ts >= c.lo && ts <= c.last; in && (i < i0 || i >= i1) {
				t.Fatalf("%+v: row %d (ts %d) is in the window but outside [%d,%d)", c, i, ts, i0, i1)
			}
		}
	}
}

// coldThenHot builds a schema of nsrc irregular sources, each with one
// 1024-point cold record (which raises MaxSpanMs to its 512 s; ColdLastTS
// says no scan past it needs to look back that far) followed by eight
// 128-point hot records, one point per 500 ms. It returns the points
// written, per source.
func coldThenHot(t *testing.T, cfg Config, nsrc int) (*fixture, *model.SchemaType, map[int64][]model.Point) {
	t.Helper()
	return tieredRecords(t, cfg, nsrc, 1024)
}

// tieredRecords builds coldThenHot's store with the cold cutoff after the
// first coldPoints points of each source: sixteen hot records when 0, two
// cold records and no hot one when 2048.
func tieredRecords(t *testing.T, cfg Config, nsrc, coldPoints int) (*fixture, *model.SchemaType, map[int64][]model.Point) {
	t.Helper()
	cfg.BatchSize = 128
	f := newFixture(t, cfg, 0)
	s := f.schema(t, "meter", 4)
	truth := map[int64][]model.Point{}
	const n = 2048
	for i := 0; i < nsrc; i++ {
		ds := f.source(t, s.ID, false, 500)
		for j := 0; j < n; j++ {
			p := model.Point{Source: ds.ID, TS: int64(j)*500 + int64(j%3), Values: []float64{float64(j % 11), float64(j), 0.5 * float64(j%7), float64(ds.ID)}}
			truth[ds.ID] = append(truth[ds.ID], p.Clone())
			if err := f.store.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	// A cutoff between two 128-point records: the points before it compact,
	// 1024 to a cold record.
	cold := coldPoints / 1024
	if res, err := f.store.TierSchema(s.ID, TierPolicy{ColdAfterMs: 1}, int64(coldPoints)*500); err != nil || res.Rewritten != nsrc*cold {
		t.Fatalf("cold pass: %+v, %v; want %d cold record(s) per source", res, err, cold)
	}
	for id := range truth {
		st := f.cat.Stats(id)
		if want := int64(cold + (n-coldPoints)/128); st.BatchCount != want || st.HasCold != (cold > 0) || (cold > 0 && st.MaxSpanMs < 500_000) {
			t.Fatalf("source %d: stats %+v, want %d records, cold-wide MaxSpanMs: %v", id, st, want, cold > 0)
		}
	}
	return f, s, truth
}

func inWindow(truth map[int64][]model.Point, t1, t2 int64) map[int64][]model.Point {
	out := map[int64][]model.Point{}
	for id, pts := range truth {
		for _, p := range pts {
			if p.TS >= t1 && p.TS < t2 {
				out[id] = append(out[id], p)
			}
		}
	}
	return out
}

func bySource(pts []model.Point) map[int64][]model.Point {
	out := map[int64][]model.Point{}
	for _, p := range pts {
		out[p.Source] = append(out[p.Source], p)
	}
	return out
}

func sameBySource(t *testing.T, label string, got, want map[int64][]model.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows of %d sources, want %d", label, len(got), len(want))
	}
	for id := range want {
		if !pointsEqual(got[id], want[id]) {
			t.Fatalf("%s: source %d: got %d rows %v, want %d rows %v", label, id, len(got[id]), got[id], len(want[id]), want[id])
		}
	}
}

// TestSliceScanNeverReadsPayloadsOutsideItsWindow: with the payload (not
// the header) of every record outside a 5 s window overwritten with
// garbage, a strict slice of that window still returns its exact rows —
// nothing behind the header of a record the window misses is looked at.
func TestSliceScanNeverReadsPayloadsOutsideItsWindow(t *testing.T) {
	f, s, truth := coldThenHot(t, Config{}, 3)
	const t1, t2 = 900_000, 905_000 // inside the seventh hot record of every source (points 1800-1809)
	poisoned := 0
	for id := range truth {
		recs, err := readRange(&home{tree: f.store.irts, id: id}, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			h, ok := parseBlobHeader(r.blob)
			_, first, last, spanOK := h.span(r.ts)
			if !ok || !spanOK {
				t.Fatalf("source %d ts %d: header does not parse", id, r.ts)
			}
			if last >= t1 && first < t2 {
				continue
			}
			for i := h.payOff; i < len(r.blob); i++ {
				r.blob[i] = 0xA5
			}
			if _, err := DecodeBlob(r.blob, r.ts, nil); err == nil {
				t.Fatalf("source %d ts %d: poisoned payload still decodes", id, r.ts)
			}
			if err := f.store.irts.Put(keyenc.SourceTime(id, r.ts), r.blob); err != nil {
				t.Fatal(err)
			}
			poisoned++
		}
	}
	if poisoned != 3*8 {
		t.Fatalf("poisoned %d records, want all but one of each source's nine", poisoned)
	}
	want := inWindow(truth, t1, t2)
	for _, opts := range []ScanOptions{{}, {NoCache: true}} {
		it, err := f.store.SliceScanOpts(s.ID, t1, t2, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, it) // fails on a strict scan's decode error
		if len(got) != 3*10 {
			t.Fatalf("slice returned %d rows, want 30", len(got))
		}
		sameBySource(t, "slice", bySource(got), want)
		// One record per source was decoded; pruned ones charge nothing.
		var wantBytes int64
		for id := range truth {
			blob, err := f.store.irts.Get(keyenc.SourceTime(id, truth[id][1024+6*128].TS))
			if err != nil {
				t.Fatal(err)
			}
			wantBytes += int64(len(blob))
		}
		if it.BlobBytes() != wantBytes {
			t.Fatalf("BlobBytes = %d, want %d: the encoded length of the one record per source the window cuts", it.BlobBytes(), wantBytes)
		}
	}
}

// TestSliceDoesNotEnterTheCache: a window inside its records decodes row
// ranges, which have no cache key — the LRU is as it was — while a scan
// that covers whole records still fills it and is served from it.
func TestSliceDoesNotEnterTheCache(t *testing.T) {
	f, s, truth := coldThenHot(t, Config{BlobCacheBytes: 8 << 20}, 3)
	slice := func(t1, t2 int64) {
		it, err := f.store.SliceScanOpts(s.ID, t1, t2, nil, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameBySource(t, "slice", bySource(collect(t, it)), inWindow(truth, t1, t2))
	}
	slice(900_000, 905_000) // inside a hot record
	slice(100_000, 105_000) // inside the cold record
	if st := f.store.Stats(); st.BlobCacheEntries != 0 || st.BlobCacheSizeBytes != 0 {
		t.Fatalf("slices of windows inside their records entered the cache: %+v", st)
	}
	all := func() map[int64][]model.Point {
		it, err := f.store.SliceScanOpts(s.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return bySource(collect(t, it))
	}
	sameBySource(t, "first whole-history scan", all(), truth)
	filled := f.store.Stats()
	if filled.BlobCacheEntries != 3*9 {
		t.Fatalf("a whole-history scan cached %d records, want 27: %+v", filled.BlobCacheEntries, filled)
	}
	sameBySource(t, "second whole-history scan", all(), truth)
	if st := f.store.Stats(); st.BlobCacheHits-filled.BlobCacheHits != 3*9 || st.BlobCacheEntries != filled.BlobCacheEntries {
		t.Fatalf("second whole-history scan: %+v after %+v, want 27 more hits", st, filled)
	}
	// Hits serve any window, and a slice still leaves the LRU alone.
	slice(900_000, 905_000)
	if st := f.store.Stats(); st.BlobCacheEntries != filled.BlobCacheEntries || st.BlobCacheEvictions != 0 {
		t.Fatalf("a slice over a warm cache changed it: %+v", st)
	}
}

// TestWindowDecodeBounded: a 10-row window over a 1,024-row cold IRTS
// record — NULL runs crossing its segment boundaries — materialises at
// most one segment's rows in front of the window and none behind it: at
// most 128 + 10 timestamps, and as many values per column it wants, as
// Stats.DecodedValues counts them. A full-range scan still materialises
// every timestamp and every present value.
func TestWindowDecodeBounded(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 128}, 0)
	s := f.schema(t, "meter", 4)
	ds := f.source(t, s.ID, false, 500)
	const n = 1024
	ts := make([]int64, n)
	present := 0
	for j := range ts {
		ts[j] = int64(j)*500 + int64(j%3)
		vals := make([]float64, 4)
		for tag := range vals {
			if (j+40*tag)/53%3 == 0 { // runs of 53 NULLs, offset per tag
				vals[tag] = model.NullValue
				continue
			}
			vals[tag] = float64(j*(tag+1)) + 0.5
			present++
		}
		if err := f.store.Write(model.Point{Source: ds.ID, TS: ts[j], Values: vals}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, err := f.store.TierSchema(s.ID, TierPolicy{ColdAfterMs: 1, ColdBatchPoints: n}, ts[n-1]+2); err != nil || res.Rewritten != 1 {
		t.Fatalf("cold pass: %+v, %v; want one 1,024-row cold record", res, err)
	}
	scan := func(t1, t2 int64, wantTags []int) (rows int, decoded int64) {
		t.Helper()
		was := f.store.Stats().DecodedValues
		it, err := f.store.MultiHistoricalScanOpts([]int64{ds.ID}, t1, t2, wantTags, ScanOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		rows = len(collect(t, it))
		return rows, f.store.Stats().DecodedValues - was
	}
	for _, r0 := range []int{0, 300, 250, 124, 1014} { // inside a segment, across a boundary, at the end
		t1, t2 := ts[r0], ts[r0+9]+1
		rows, stamps := scan(t1, t2, []int{})
		if rows != 10 || stamps > 128+10 {
			t.Fatalf("rows [%d,%d): %d rows, %d timestamps materialised, want 10 and at most 138", r0, r0+10, rows, stamps)
		}
		for tag := 0; tag < 4; tag++ {
			if _, decoded := scan(t1, t2, []int{tag}); decoded-stamps > 128+10 {
				t.Fatalf("rows [%d,%d) tag %d: %d values materialised, want at most 138", r0, r0+10, tag, decoded-stamps)
			}
		}
	}
	if rows, decoded := scan(math.MinInt64, math.MaxInt64, nil); rows != n || decoded != int64(n+present) {
		t.Fatalf("full scan: %d rows, %d values materialised, want %d and %d", rows, decoded, n, n+present)
	}
}
