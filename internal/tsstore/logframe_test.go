package tsstore

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/walog"
)

// samePoints compares two point lists in order, any NaN equal to any NaN
// (a frame carries NULL as a cleared presence bit, not as NaN bits).
func samePoints(a, b []model.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Source != b[i].Source || a[i].TS != b[i].TS || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j, v := range a[i].Values {
			w := b[i].Values[j]
			if v != w && !(v != v && w != w) {
				return false
			}
		}
	}
	return true
}

// decodeFrames decodes the payloads of one encodeFrames call back to back.
func decodeFrames(t testing.TB, recs [][]byte) []model.Point {
	t.Helper()
	var out []model.Point
	for i, rec := range recs {
		f, err := DecodeFrame(rec, nil)
		if err != nil {
			t.Fatalf("record %d of %d: %v", i, len(recs), err)
		}
		out = append(out, f.points...)
	}
	return out
}

// randomFrame draws n points that mix what a frame has to carry: schemas
// of different widths (zero included), negative ids, timestamps out of
// order and at the int64 extremes, repeated (source, ts), and — by mode —
// no NULL at all, some, or nothing but NULL.
func randomFrame(rng *rand.Rand, n, mode int) []model.Point {
	widths := []int{0, 1, 4, 8, 9, 15, 64}
	pts := make([]model.Point, n)
	for i := range pts {
		p := model.Point{Source: rng.Int63n(4000) - 2000, TS: 1_700_000_000_000 + rng.Int63n(1000) - 500}
		switch rng.Intn(20) {
		case 0:
			p.TS = math.MaxInt64
		case 1:
			p.TS = math.MinInt64
		case 2:
			if i > 0 {
				p.Source, p.TS = pts[i-1].Source, pts[i-1].TS
			}
		}
		if rng.Intn(3) > 0 && i > 0 {
			p.Values = make([]float64, len(pts[i-1].Values)) // runs of one width
		} else {
			p.Values = make([]float64, widths[rng.Intn(len(widths))])
		}
		for j := range p.Values {
			p.Values[j] = rng.NormFloat64() * 1e3
			if mode == 2 || (mode == 1 && rng.Intn(3) == 0) {
				p.Values[j] = model.NullValue
			}
		}
		pts[i] = p
	}
	return pts
}

// TestWALFrameRoundTrip is the seeded property of the frame codec: what
// encodeFrames seals decodes to the same points in the same order, for
// every shape randomFrame draws, whole or split at any limit.
func TestWALFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var e frameEnc
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		if trial%10 == 0 {
			n = 1
		}
		pts := randomFrame(rng, n, trial%3)
		limit := walog.MaxRecord
		if trial%2 == 1 {
			limit = 64 + rng.Intn(4096) // small enough to split most calls
		}
		recs := e.encodeFrames(pts, limit)
		if limit == walog.MaxRecord && len(recs) != 1 {
			t.Fatalf("trial %d: %d points sealed into %d records, want 1", trial, n, len(recs))
		}
		for _, rec := range recs {
			if one, _ := DecodeFrame(rec, nil); len(rec) > limit && len(one.points) != 1 {
				t.Fatalf("trial %d: a %d-byte record of %d points passes the %d-byte limit", trial, len(rec), len(one.points), limit)
			}
		}
		if got := decodeFrames(t, recs); !samePoints(got, pts) {
			t.Fatalf("trial %d (n=%d, limit=%d, %d records): decoded points differ from the encoded ones", trial, n, limit, len(recs))
		}
	}
	if recs := e.encodeFrames(nil, walog.MaxRecord); len(recs) != 0 {
		t.Fatalf("an empty call sealed %d records", len(recs))
	}
}

// TestWALFrameSplitsAtRecordCap: an ingest call too large for one walog
// record goes through the real log as several records of one append and
// replays complete.
func TestWALFrameSplitsAtRecordCap(t *testing.T) {
	l, err := walog.OpenFile(pagestore.NewMemFile(), walog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pts := make([]model.Point, 600_000) // 4 values each: ≈ 19 MiB of values alone
	for i := range pts {
		pts[i] = model.Point{Source: int64(i % 977), TS: int64(i), Values: []float64{float64(i), 1, 2, 3}}
	}
	if err := LogFrame(l, pts); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records < 2 || st.GroupCommits != 1 {
		t.Fatalf("a %d-point call took %d records in %d commits, want several records of one commit", len(pts), st.Records, st.GroupCommits)
	}
	var got []model.Point
	if err := l.Replay(func(kind byte, payload []byte) error {
		if len(payload) > walog.MaxRecord {
			t.Fatalf("%d-byte record", len(payload))
		}
		p, err := decodeLogRecord(kind, payload)
		got = append(got, p...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !samePoints(got, pts) {
		t.Fatalf("replayed %d points, differing from the %d logged", len(got), len(pts))
	}
}

// TestWALFrameDecodeRejectsHugeCount is TestWALPointDecodeRejectsHugeCount
// for frames: a count the payload cannot back is refused before anything
// is sized by it.
func TestWALFrameDecodeRejectsHugeCount(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01} // uvarint 2^63 + …
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	cases := map[string][]byte{
		"point count":   cat(huge, []byte{1, 1, 2, 0}, []byte{2, 2, 1, 0}),
		"column length": cat([]byte{1}, huge, []byte{1, 2, 0, 2, 2, 1, 0}),
		// One point declaring 2^20 values, the most a run may, and none behind it.
		"values per point": cat([]byte{1, 1, 1, 4, 0}, []byte{2, 2}, []byte{1, 0x80, 0x80, 0x40}),
		"run values":       cat([]byte{1, 1, 1, 11, 0}, []byte{2, 2, 1}, huge),
		"run length":       cat([]byte{1, 1, 1, 11, 0}, []byte{2, 2}, huge, []byte{0}),
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeFrame(b, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want a corrupt-frame rejection", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(b), grew)
		}
	}
}

// TestLegacyLogReplays: a log written before frames — one EncodePointWAL
// record per point, kind 0 — replays exactly, alone and with the frames
// this build appends behind it, and a record kind no build has written
// fails Open with ErrUnknownLogRecord instead of being skipped.
func TestLegacyLogReplays(t *testing.T) {
	file := pagestore.NewMemFile()
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	f, l := crashFixture(t, file, logPath)
	ds := f.source(t, f.schema(t, "w", 2).ID, false, 10)
	if err := f.store.Flush(); err != nil { // the catalog is committed, the log empty
		t.Fatal(err)
	}
	point := func(i int) model.Point {
		return model.Point{Source: ds.ID, TS: int64(1000 + i), Values: []float64{float64(i), model.NullValue}}
	}
	for i := 0; i < 40; i++ { // what the previous build's ingest did, a record per point
		if err := l.AppendBatch([][]byte{EncodePointWAL(point(i))}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	check := func(when string, s *Store, want int) {
		t.Helper()
		it, err := s.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, it)
		wantPts := make([]model.Point, want)
		for i := range wantPts {
			wantPts[i] = point(i)
		}
		if !samePoints(got, wantPts) {
			t.Fatalf("%s: store holds %d points, want exactly the %d logged", when, len(got), want)
		}
	}

	f2, l2 := crashFixture(t, file, logPath)
	check("legacy log alone", f2.store, 40)
	var frame []model.Point
	for i := 40; i < 70; i++ {
		frame = append(frame, point(i))
	}
	if err := f2.store.WriteBatch(frame); err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	l2.Replay(func(kind byte, _ []byte) error { kinds[kind]++; return nil })
	if kinds[logPoint] != 40 || kinds[logFrame] != 1 || len(kinds) != 2 {
		t.Fatalf("log holds records by kind %v, want 40 legacy points and 1 frame behind them", kinds)
	}
	l2.Close()

	f3, l3 := crashFixture(t, file, logPath)
	check("legacy log with a frame behind it", f3.store, 70)
	if err := l3.AppendKind(200, [][]byte{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	l3.Close()
	if _, _, err := openCrashed(t, file, logPath); !errors.Is(err, ErrUnknownLogRecord) {
		t.Fatalf("Open over a log with a record of kind 200 = %v, want ErrUnknownLogRecord", err)
	}
}

// TestTornFrameDroppedWhole: a frame is one record under one checksum, so
// a tail torn anywhere inside it loses that ingest call whole and keeps
// every call logged before it.
func TestTornFrameDroppedWhole(t *testing.T) {
	file := pagestore.NewMemFile()
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	f, l := crashFixture(t, file, logPath)
	ds := f.source(t, f.schema(t, "w", 1).ID, false, 10)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for call := 0; call < 3; call++ {
		frame := make([]model.Point, 100)
		for i := range frame {
			frame[i] = model.Point{Source: ds.ID, TS: int64(call*100 + i), Values: []float64{float64(call)}}
		}
		if err := f.store.WriteBatch(frame); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	l.Close()
	whole, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{ends[2] - 1, (ends[1] + ends[2]) / 2, ends[1] + 3} {
		if err := os.WriteFile(logPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f2, l2 := crashFixture(t, file, logPath)
		if got := scanCount(t, f2.store, ds.ID); got != 200 {
			t.Fatalf("log cut at %d of %d: recovered %d points, want the 200 of the two whole frames", cut, ends[2], got)
		}
		if got := l2.Size(); got != ends[1] {
			t.Fatalf("log cut at %d: reopened log is %d bytes, want the torn frame gone (%d)", cut, got, ends[1])
		}
		l2.Close()
	}
}

// TestReplayIngestsInBatches pins what a replay costs: at most one ingest
// per log record, and far fewer for a log of small records. A logged
// replay appends one record per ingest, so the target's log counts them.
func TestReplayIngestsInBatches(t *testing.T) {
	for _, tc := range []struct {
		name               string
		records, perRecord int
		maxIngests         int64
	}{
		{"hint log of one-point frames", 10_000, 1, 10_000/4096 + 1},
		{"recovery log of client frames", 3, 5000, 3},
	} {
		src, err := walog.OpenFile(pagestore.NewMemFile(), walog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		dst, err := walog.OpenFile(pagestore.NewMemFile(), walog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		f := newFixture(t, Config{BatchSize: 128, Log: dst}, 0)
		ds := f.source(t, f.schema(t, "w", 1).ID, false, 10)
		ts := int64(0)
		for r := 0; r < tc.records; r++ {
			frame := make([]model.Point, tc.perRecord)
			for i := range frame {
				frame[i] = model.Point{Source: ds.ID, TS: ts, Values: []float64{1}}
				ts++
			}
			if err := LogFrame(src, frame); err != nil {
				t.Fatal(err)
			}
		}
		// One logged point is held already: the replay still skips it.
		if err := f.store.Write(model.Point{Source: ds.ID, TS: 7, Values: []float64{1}}); err != nil {
			t.Fatal(err)
		}
		before := dst.Stats()
		applied, skipped, err := f.store.Replay(src)
		if err != nil || applied != int(ts)-1 || skipped != 1 {
			t.Fatalf("%s: %d applied, %d skipped, %v; want %d, 1", tc.name, applied, skipped, err, ts-1)
		}
		if got := dst.Stats().Records - before.Records; got > tc.maxIngests {
			t.Fatalf("%s: replay of %d records made %d ingest calls, want at most %d", tc.name, tc.records, got, tc.maxIngests)
		}
		if got := scanCount(t, f.store, ds.ID); got != int(ts) {
			t.Fatalf("%s: store holds %d points, want %d", tc.name, got, ts)
		}
	}
}

// TestLoggingAllocatesPerCallNotPerPoint: sealing a call's frame in
// scratch that has seen such a call allocates nothing, however many points
// it carries; what the append costs on top (walog's request) is per call.
// The scratch is owned here, not pooled: sync.Pool drops items at random
// under the race detector.
func TestLoggingAllocatesPerCallNotPerPoint(t *testing.T) {
	pts := randomFrame(rand.New(rand.NewSource(1)), 1000, 1)
	var e frameEnc
	e.encodeFrames(pts, walog.MaxRecord) // sizes the scratch
	if allocs := testing.AllocsPerRun(20, func() {
		if recs := e.encodeFrames(pts, walog.MaxRecord); len(recs) != 1 {
			t.Fatalf("%d records", len(recs))
		}
	}); allocs != 0 {
		t.Fatalf("sealing a 1000-point call allocates %.0f times, want 0", allocs)
	}
}

// TestDecodeFrameAllocsFlat: the one frame decoder, behind the wire and
// replay alike, costs the point slice and one slab of values, whatever the
// frame's point count — for a TD-shaped frame (4 values a point, no NULL)
// and an LD-shaped one (15 slots a point, most of them NULL).
func TestDecodeFrameAllocsFlat(t *testing.T) {
	for _, shape := range []struct {
		name          string
		width, stride int // a value is present every stride slots
	}{{"TD", 4, 1}, {"LD", 15, 5}} {
		allocs := func(n int) float64 {
			points := make([]model.Point, n)
			for i := range points {
				v := make([]float64, shape.width)
				for j := range v {
					v[j] = model.NullValue
					if j%shape.stride == 0 {
						v[j] = float64(i + j)
					}
				}
				points[i] = model.Point{Source: int64(i % 97), TS: int64(i) * 10, Values: v}
			}
			b, _ := AppendFrame(nil, points)
			return testing.AllocsPerRun(20, func() {
				if f, err := DecodeFrame(b, nil); err != nil || !samePoints(f.points, points) {
					t.Fatalf("%s: %d points decode to %d, %v", shape.name, n, len(f.points), err)
				}
			})
		}
		if small, large := allocs(10), allocs(1000); small > 2 || large > 2 {
			t.Fatalf("%s: a 1,000-point frame decodes in %.0f allocations, a 10-point frame in %.0f: want at most 2 for both", shape.name, large, small)
		}
	}
}
