package tsstore

import (
	"math"
	"testing"

	"odh/internal/model"
)

func TestDropBeforeRTS(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 10}, 0)
	s := f.schema(t, "ret", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 100; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{float64(i)}})
	}
	f.store.Flush()
	// Drop everything before t=500: batches [0,100)...[400,500) go,
	// [500,...] stay.
	res, err := f.store.DropBefore(s.ID, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 5 {
		t.Fatalf("dropped %d records, want 5", res.Dropped)
	}
	if res.BytesBefore <= 0 || res.BytesAfter != 0 {
		t.Fatalf("bytes %d -> %d, want some reclaimed and nothing written", res.BytesBefore, res.BytesAfter)
	}
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != 50 {
		t.Fatalf("%d points survive, want 50", len(pts))
	}
	if pts[0].TS != 500 {
		t.Fatalf("first surviving ts = %d", pts[0].TS)
	}
	// Idempotent.
	res2, err := f.store.DropBefore(s.ID, 500)
	if err != nil || res2.Dropped != 0 {
		t.Fatalf("second drop: %+v %v", res2, err)
	}
}

func TestDropBeforeKeepsStraddlingBatch(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 10}, 0)
	s := f.schema(t, "straddle", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 20; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1}})
	}
	f.store.Flush()
	// Cutoff 50 lands inside the first batch [0, 100): nothing dropped.
	res, err := f.store.DropBefore(s.ID, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("straddling batch dropped: %+v", res)
	}
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	if got := len(collect(t, it)); got != 20 {
		t.Fatalf("points = %d", got)
	}
}

func TestDropBeforeMG(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "mgret", 1)
	var sources []*model.DataSource
	for i := 0; i < 4; i++ {
		sources = append(sources, f.source(t, s.ID, true, 900000))
	}
	for round := 0; round < 8; round++ {
		ts := int64(900000 * (round + 1))
		for _, ds := range sources {
			f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(round)}})
		}
	}
	f.store.Flush()
	cutoff := int64(900000*4 + 900001) // safely past round 3's window
	res, err := f.store.DropBefore(s.ID, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("nothing dropped from MG")
	}
	it, _ := f.store.SliceScanOpts(s.ID, 0, math.MaxInt64, nil, ScanOptions{})
	pts := collect(t, it)
	for _, p := range pts {
		if p.TS < cutoff-900000 {
			t.Fatalf("point at %d survived cutoff %d", p.TS, cutoff)
		}
	}
	if len(pts) == 0 {
		t.Fatal("everything dropped")
	}
}

// TestDropBeforeKeepsPointCount pins the statistics the planner's row
// estimates read: after flush + DropBefore a source's (or MG group's)
// PointCount is the row count of a full scan, not the count ever written.
func TestDropBeforeKeepsPointCount(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 4)
	s := f.schema(t, "ptcount", 1)
	rts := f.source(t, s.ID, true, 10)
	var mgs []*model.DataSource
	for i := 0; i < 4; i++ {
		mgs = append(mgs, f.source(t, s.ID, true, 10_000))
	}
	for i := 0; i < 1000; i++ { // straddles the cutoff
		f.store.Write(model.Point{Source: rts.ID, TS: 60_000 + int64(i*10), Values: []float64{1}})
	}
	for w := int64(1); w <= 12; w++ {
		for _, ds := range mgs[:1+w%4] { // partially filled rows too
			f.store.Write(model.Point{Source: ds.ID, TS: w * 10_000, Values: []float64{float64(w)}})
		}
	}
	f.store.Flush()
	res, err := f.store.DropBefore(s.ID, 65_000)
	if err != nil || res.Dropped == 0 {
		t.Fatalf("drop: %+v err=%v", res, err)
	}
	it, _ := f.store.HistoricalScan(rts.ID, math.MinInt64, math.MaxInt64, nil)
	if st, n := f.cat.Stats(rts.ID), len(collect(t, it)); st.PointCount != int64(n) || n == 0 || n == 1000 {
		t.Fatalf("source PointCount = %d, scan has %d rows", st.PointCount, n)
	}
	it, _ = f.store.SliceScanOpts(s.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{})
	mgRows := 0
	for _, p := range collect(t, it) {
		if p.Source != rts.ID {
			mgRows++
		}
	}
	if st := f.cat.GroupStats(mgs[0].Group); st.PointCount != int64(mgRows) || mgRows == 0 {
		t.Fatalf("group PointCount = %d, scan has %d rows", st.PointCount, mgRows)
	}
}

func TestDropBeforeThenIngestContinues(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 4}, 0)
	s := f.schema(t, "cont", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 40; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1}})
	}
	f.store.Flush()
	if _, err := f.store.DropBefore(s.ID, 200); err != nil {
		t.Fatal(err)
	}
	// New data lands and reads fine after retention.
	for i := 40; i < 48; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{2}})
	}
	f.store.Flush()
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != 28 { // 20 surviving + 8 new
		t.Fatalf("points = %d, want 28", len(pts))
	}
}

// TestConcurrentIngestAndQuery exercises the dirty-read path under
// concurrency: writers stream points while readers continuously scan.
// The race detector validates synchronization; the assertions validate
// that every scan is an exact dirty read (see feed): every row acked
// before it started exactly once, nothing past what writers had started
// when it ended, timestamps ascending.
func TestConcurrentIngestAndQuery(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 32}, 0)
	s := f.schema(t, "conc", 2)
	const perSource = 2000
	var ids []int64
	streams := map[int64][]model.Point{}
	for i := 0; i < 4; i++ {
		ds := f.source(t, s.ID, true, 10)
		ids = append(ids, ds.ID)
		streams[ds.ID] = regularStream(perSource, 10)
	}
	fd := newFeed(streams)
	done := make(chan error, len(ids)+2)
	for _, id := range ids {
		go func(id int64) {
			for i := 0; i < perSource; i++ {
				if err := fd.write(f.store, id, i); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(id)
	}
	for r := 0; r < 2; r++ {
		go func() {
			for scan := 0; scan < 50; scan++ {
				if err := fd.readHistorical(f.store, ids[scan%len(ids)], 0, math.MaxInt64, nil, ScanOptions{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < len(ids)+2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	f.store.Flush()
	for _, id := range ids {
		if err := fd.readHistorical(f.store, id, 0, math.MaxInt64, nil, ScanOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// batches returns the record counts of the ranges a pass read, before and
// after it.
func batches(res MaintenanceResult) (before, after int) {
	return res.Records, res.Records - res.Deleted + res.Rewritten
}

func TestCoalesceMergesSmallBatches(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "co", 1)
	ds := f.source(t, s.ID, false, 100) // IRTS
	// Interleave two time ranges so out-of-order flushes create many
	// small batches.
	for i := 0; i < 40; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i*200 + 100), Values: []float64{float64(i)}})
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 200), Values: []float64{float64(i) + 0.5}})
	}
	f.store.Flush()
	res, err := f.store.Coalesce(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	before, after := batches(res)
	if after >= before {
		t.Fatalf("coalesce did not shrink: %d -> %d", before, after)
	}
	if after > 6 { // 80 points / 16 per batch = 5
		t.Fatalf("batches after = %d", after)
	}
	// Data integrity: full ordered history survives.
	it, _ := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	pts := collect(t, it)
	if len(pts) != 80 {
		t.Fatalf("points = %d, want 80", len(pts))
	}
	prev := int64(-1)
	for _, p := range pts {
		if p.TS <= prev {
			t.Fatalf("order broken at %d", p.TS)
		}
		prev = p.TS
	}
	// Stats stay consistent.
	st := f.cat.Stats(ds.ID)
	if st.PointCount != 80 || st.BatchCount != int64(after) {
		t.Fatalf("stats after coalesce: %+v", st)
	}
}

func TestCoalesceNoOpOnHealthyHistory(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 0)
	s := f.schema(t, "healthy", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 64; i++ {
		f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1}})
	}
	f.store.Flush()
	res, err := f.store.Coalesce(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 0 || res.Rewritten != 0 {
		t.Fatalf("healthy history rewritten: %+v", res)
	}
}

func TestCoalesceAfterMGOverflow(t *testing.T) {
	// Exact repeats of a member's open timestamp create single-point
	// overflow batches; coalesce folds them into proper IRTS batches.
	f := newFixture(t, Config{BatchSize: 8}, 2)
	s := f.schema(t, "ovco", 1)
	a := f.source(t, s.ID, false, 10000)
	b := f.source(t, s.ID, false, 10000)
	for i := 0; i < 30; i++ {
		ts := int64(i * 10000)
		f.store.Write(model.Point{Source: a.ID, TS: ts, Values: []float64{1}})
		// A repeat while a's row at ts is open -> overflow path.
		f.store.Write(model.Point{Source: a.ID, TS: ts, Values: []float64{3}})
		f.store.Write(model.Point{Source: b.ID, TS: ts, Values: []float64{2}})
	}
	f.store.Flush()
	before := f.cat.Stats(a.ID)
	if before.BatchCount == 0 {
		t.Fatal("no overflow batches created")
	}
	res, err := f.store.Coalesce(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if before, after := batches(res); after >= before {
		t.Fatalf("no shrink: %+v", res)
	}
	it, _ := f.store.HistoricalScan(a.ID, 0, math.MaxInt64, nil)
	if got := len(collect(t, it)); got != 60 {
		t.Fatalf("a's points = %d, want 60", got)
	}
}
