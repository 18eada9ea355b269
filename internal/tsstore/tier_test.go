package tsstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"odh/internal/btree"
	"odh/internal/compress"
	"odh/internal/keyenc"
	"odh/internal/model"
)

// writeRegular ingests n gap-free points for an RTS source starting at
// start and flushes, so everything lands in persisted batches.
func writeRegular(t testing.TB, f *fixture, ds *model.DataSource, start int64, n int, ntags int) {
	t.Helper()
	for i := 0; i < n; i++ {
		vals := make([]float64, ntags)
		for j := range vals {
			vals[j] = float64(i%97) + float64(j)
		}
		if err := f.store.Write(model.Point{Source: ds.ID, TS: start + int64(i)*ds.IntervalMs, Values: vals}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
}

func tierScanAll(t testing.TB, s *Store, source, t1, t2 int64) []model.Point {
	t.Helper()
	it, err := s.HistoricalScan(source, t1, t2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return collect(t, it)
}

func TestTierColdCompaction(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "env", 2)
	ds := f.source(t, s.ID, true, 10)
	writeRegular(t, f, ds, 0, 400, 2)

	before := tierScanAll(t, f.store, ds.ID, 0, math.MaxInt64)
	statsBefore := f.cat.Stats(ds.ID)
	now := statsBefore.LastTS + 1
	cutoff := now - 1000 // everything with lastTS < cutoff goes cold

	res, err := f.store.TierSchema(s.ID, TierPolicy{ColdAfterMs: 1000}, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted == 0 || res.Rewritten == 0 {
		t.Fatalf("cold pass did nothing: %+v", res)
	}
	if res.Rewritten >= res.Deleted {
		t.Fatalf("cold pass did not coalesce: %d records -> %d", res.Deleted, res.Rewritten)
	}
	if res.BytesAfter >= res.BytesBefore {
		t.Fatalf("cold pass grew bytes: %d -> %d", res.BytesBefore, res.BytesAfter)
	}

	// Every record below the cutoff is now cold; data is bit-identical.
	if err := f.store.rts.Scan(nil, nil, func(k, v []byte) bool {
		if tier := BlobTier(v); tier == TierHot {
			_, baseTS, kerr := keyenc.DecodeSourceTime(k)
			if kerr != nil {
				t.Error(kerr)
				return false
			}
			if _, _, last, ok := blobSpan(stored{ts: baseTS, blob: v}); ok && last < cutoff {
				t.Errorf("hot record with lastTS=%d survived below cutoff %d", last, cutoff)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	after := tierScanAll(t, f.store, ds.ID, 0, math.MaxInt64)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("cold compaction changed scan results: %d vs %d points", len(before), len(after))
	}

	// Catalog stats stay coherent through the delete/rewrite cycle.
	statsAfter := f.cat.Stats(ds.ID)
	if statsAfter.PointCount != statsBefore.PointCount {
		t.Fatalf("point count drifted: %d -> %d", statsBefore.PointCount, statsAfter.PointCount)
	}

	// A second pass is a no-op: cold records never re-compact.
	res2, err := f.store.TierSchema(s.ID, TierPolicy{ColdAfterMs: 1000}, now)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Deleted != 0 || res2.Rewritten != 0 || res2.Stubbed != 0 {
		t.Fatalf("tier pass is not idempotent: %+v", res2)
	}

	ts, err := f.store.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.ColdBlobs != int64(res.Rewritten) {
		t.Fatalf("TierStats cold count = %d, want %d", ts.ColdBlobs, res.Rewritten)
	}
	if got := f.store.Stats(); got.ColdCompactions != int64(res.Deleted) || got.TierBytesReclaimed != res.BytesBefore-res.BytesAfter {
		t.Fatalf("stats counters = %+v, want cold=%d reclaimed=%d", got, res.Deleted, res.BytesBefore-res.BytesAfter)
	}
}

func TestTierColdLossyPolicyBitIdentical(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	tags := []model.TagDef{
		{Name: "a", Compression: compress.Policy{MaxDev: 0.5}},
		{Name: "b"},
	}
	s, err := f.cat.CreateSchemaType("lossy", tags)
	if err != nil {
		t.Fatal(err)
	}
	ds := f.source(t, s.ID, true, 10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if werr := f.store.Write(model.Point{Source: ds.ID, TS: int64(i) * 10, Values: []float64{rng.Float64() * 100, rng.Float64()}}); werr != nil {
			t.Fatal(werr)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	before := tierScanAll(t, f.store, ds.ID, 0, math.MaxInt64)
	if _, err := f.store.TierSchema(s.ID, TierPolicy{ColdAfterMs: 1}, f.cat.Stats(ds.ID).LastTS+2); err != nil {
		t.Fatal(err)
	}
	after := tierScanAll(t, f.store, ds.ID, 0, math.MaxInt64)
	if len(before) != len(after) {
		t.Fatalf("point count changed: %d -> %d", len(before), len(after))
	}
	// The cold tier must preserve the lossy round-trip bit-for-bit — it
	// re-encodes the already-degraded values losslessly, it never loses
	// again.
	for i := range before {
		for j := range before[i].Values {
			if math.Float64bits(before[i].Values[j]) != math.Float64bits(after[i].Values[j]) {
				t.Fatalf("point %d tag %d: %v -> %v", i, j, before[i].Values[j], after[i].Values[j])
			}
		}
	}
}

func TestTierStubAggregatesAndScanError(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "env", 2)
	ds := f.source(t, s.ID, true, 10)
	writeRegular(t, f, ds, 0, 640, 2)
	last := f.cat.Stats(ds.ID).LastTS
	now := last + 1

	spec := AggSpec{T1: 0, T2: math.MaxInt64, NTags: 2}
	aggBefore, err := f.store.AggregateHistorical(ds.ID, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The cold pass coalesces at 8x batch granularity (128 points =
	// 1280ms spans here), so the stub cutoff must clear at least one
	// whole cold blob; straddlers keep their rows.
	res, err := f.store.TierSchema(s.ID, TierPolicy{ColdAfterMs: 1000, StubAfterMs: 3000}, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stubbed == 0 {
		t.Fatalf("stub pass did nothing: %+v", res)
	}

	// Aggregates over the stubbed history stay bit-identical: the stub
	// keeps the exact summary the hot record carried.
	aggAfter, err := f.store.AggregateHistorical(ds.ID, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggBefore.Groups) != len(aggAfter.Groups) {
		t.Fatalf("group count changed: %d -> %d", len(aggBefore.Groups), len(aggAfter.Groups))
	}
	for i := range aggBefore.Groups {
		b, a := aggBefore.Groups[i], aggAfter.Groups[i]
		if b.Rows != a.Rows || !reflect.DeepEqual(b.NonNull, a.NonNull) {
			t.Fatalf("group %d count drifted: %+v vs %+v", i, b, a)
		}
		for tg := range b.Sum {
			if math.Float64bits(b.Sum[tg]) != math.Float64bits(a.Sum[tg]) ||
				math.Float64bits(b.Min[tg]) != math.Float64bits(a.Min[tg]) ||
				math.Float64bits(b.Max[tg]) != math.Float64bits(a.Max[tg]) {
				t.Fatalf("group %d tag %d aggregate drifted", i, tg)
			}
		}
	}

	// A raw-row scan over the stubbed range fails with the typed error.
	it, err := f.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	serr := it.Err()
	if serr == nil {
		t.Fatal("raw scan over stubbed range succeeded")
	}
	if !errors.Is(serr, ErrStubbedBlob) {
		t.Fatalf("scan error %v is not ErrStubbedBlob", serr)
	}
	var sre *StubbedRangeError
	if !errors.As(serr, &sre) || sre.Tree != "ts.rts" || sre.Source != ds.ID {
		t.Fatalf("scan error %v lacks record identity", serr)
	}

	// A scan restricted to the still-hot tail succeeds: stubs outside the
	// window skip silently.
	tail := tierScanAll(t, f.store, ds.ID, now-900, math.MaxInt64)
	if len(tail) == 0 {
		t.Fatal("tail scan over hot range returned nothing")
	}

	// Boundary aggregates that need rows inside a stub fail loudly too.
	if _, err := f.store.AggregateHistorical(ds.ID, AggSpec{T1: 5, T2: 25, NTags: 2}); !errors.Is(err, ErrStubbedBlob) {
		t.Fatalf("boundary aggregate over stub: err = %v, want ErrStubbedBlob", err)
	}

	// fsck accepts stubs: the payload is gone by policy, not corruption.
	checked, corrupt, stale, err := f.store.VerifyBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || len(corrupt) != 0 || len(stale) != 0 {
		t.Fatalf("VerifyBlobs checked=%d corrupt=%v stale=%v", checked, corrupt, stale)
	}

	ts, err := f.store.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.StubBlobs != int64(res.Stubbed) {
		t.Fatalf("TierStats stub count = %d, want %d", ts.StubBlobs, res.Stubbed)
	}
	if ts.StubBytes >= ts.HotBytes {
		t.Fatalf("stub bytes %d not smaller than hot bytes %d", ts.StubBytes, ts.HotBytes)
	}
}

func TestTierStubNotQuarantinedByLenientScan(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, LenientScan: true}, 0)
	s := f.schema(t, "env", 1)
	ds := f.source(t, s.ID, true, 10)
	writeRegular(t, f, ds, 0, 64, 1)
	now := f.cat.Stats(ds.ID).LastTS + 1
	if _, err := f.store.TierSchema(s.ID, TierPolicy{StubAfterMs: 100}, now); err != nil {
		t.Fatal(err)
	}
	it, err := f.store.HistoricalScan(ds.ID, 0, now-200, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	// Lenient mode quarantines corruption; a stub is policy and must
	// still surface as the typed error, never as a silent skip.
	if !errors.Is(it.Err(), ErrStubbedBlob) {
		t.Fatalf("lenient scan err = %v, want ErrStubbedBlob", it.Err())
	}
	if got := f.store.Stats().CorruptBlobsSkipped; got != 0 {
		t.Fatalf("lenient scan quarantined %d stubs as corrupt", got)
	}
}

func TestTierRetentionDropsStubs(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "env", 1)
	ds := f.source(t, s.ID, true, 10)
	writeRegular(t, f, ds, 0, 160, 1)
	now := f.cat.Stats(ds.ID).LastTS + 1
	res, err := f.store.TierSchema(s.ID, TierPolicy{StubAfterMs: 500}, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stubbed == 0 {
		t.Fatal("no stubs created")
	}
	// Retention is the lifecycle's final stage: stubs age out like any
	// other record, via their summary timestamps.
	drop, err := f.store.DropBefore(s.ID, now-500)
	if err != nil {
		t.Fatal(err)
	}
	if drop.Dropped < res.Stubbed {
		t.Fatalf("retention dropped %d records, want >= %d stubs", drop.Dropped, res.Stubbed)
	}
	ts, err := f.store.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.StubBlobs != 0 {
		t.Fatalf("%d stubs survived retention", ts.StubBlobs)
	}
}

// TestTierConcurrentWithScans exercises tier passes racing reads of the
// tiered source and of a source under another schema (TierSchema tiers
// every source of its schema) — the race-detector target for the tier
// lifecycle's latch and cache-invalidation protocol.
func TestTierConcurrentWithScans(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 1 << 20}, 0)
	s := f.schema(t, "env", 2)
	tiered := f.source(t, s.ID, true, 10)
	hot := f.source(t, f.schema(t, "env-hot", 2).ID, true, 10)
	writeRegular(t, f, tiered, 0, 320, 2)
	writeRegular(t, f, hot, 0, 320, 2)
	now := f.cat.Stats(tiered.ID).LastTS + 1

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Scans of the hot source must never see tier errors; scans of
			// the tiered source may see ErrStubbedBlob but nothing else.
			it, err := f.store.HistoricalScan(hot.ID, 0, math.MaxInt64, nil)
			if err != nil {
				t.Error(err)
				return
			}
			n := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
			}
			if it.Err() != nil || n != 320 {
				t.Errorf("hot scan: n=%d err=%v", n, it.Err())
				return
			}
			it2, err := f.store.HistoricalScan(tiered.ID, 0, math.MaxInt64, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				if _, ok := it2.Next(); !ok {
					break
				}
			}
			if err := it2.Err(); err != nil && !errors.Is(err, ErrStubbedBlob) {
				t.Errorf("tiered scan: %v", err)
				return
			}
		}
	}()
	for round := 0; round < 6; round++ {
		pol := TierPolicy{ColdAfterMs: int64(2000 - round*300)}
		if round >= 3 {
			pol.StubAfterMs = int64(3000 - round*400)
		}
		if _, err := f.store.TierSchema(s.ID, pol, now); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, corrupt, stale, err := f.store.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 {
		t.Fatalf("post-race fsck: corrupt=%v stale=%v err=%v", corrupt, stale, err)
	}
}

func TestMakeStubBlobRoundTrip(t *testing.T) {
	pts := make([]model.Point, 40)
	for i := range pts {
		pts[i] = model.Point{TS: int64(i) * 10, Values: []float64{float64(i), float64(i % 3)}}
	}
	blob := EncodeRTS(pts, 2, 10, encodeOpts{policies: []compress.Policy{{}, {}}})
	full, _ := parseBlobHeader(blob)
	sumFull := full.summary(0)
	if sumFull == nil {
		t.Fatal("full blob has no summary")
	}
	stub, ok := makeStubBlob(blob)
	if !ok {
		t.Fatal("makeStubBlob failed")
	}
	if len(stub) >= len(blob) {
		t.Fatalf("stub (%d bytes) not smaller than blob (%d bytes)", len(stub), len(blob))
	}
	if BlobTier(stub) != TierStub {
		t.Fatal("stub tier bit missing")
	}
	sh, _ := parseBlobHeader(stub)
	sumStub := sh.summary(0)
	if sumStub == nil {
		t.Fatal("stub summary unreadable")
	}
	if !reflect.DeepEqual(sumFull, sumStub) {
		t.Fatalf("stub summary drifted: %+v vs %+v", sumFull, sumStub)
	}
	if _, err := DecodeBlob(stub, 0, nil); !errors.Is(err, ErrStubbedBlob) {
		t.Fatalf("DecodeBlob(stub) err = %v, want ErrStubbedBlob", err)
	}
	if _, ok := makeStubBlob(stub); ok {
		t.Fatal("re-stubbing a stub must fail")
	}
	if sh.zoneOff == 0 || sh.ntags != 2 || sh.zone(1) != full.zone(1) {
		t.Fatal("stub zone maps unreadable")
	}
}

// TestTierBytesPinned pins the byte economics of the lifecycle on the
// dense fixture: the cold pass (8x batch coalescing + max-effort
// re-encode) and the stub pass (summary-only headers), and that a
// full-window aggregate over pure stubs folds one summary per stub.
func TestTierBytesPinned(t *testing.T) {
	f, ds, end := denseFixture(t, Config{})
	census := func() TierStats {
		st, err := f.store.TierStats()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	hot := census()
	if hot.HotBlobs != 1563 || hot.HotBytes != 1389259 {
		t.Fatalf("hot census = %+v, want 1563 blobs, 1389259 bytes", hot)
	}
	res, err := f.store.TierSchema(ds.SchemaID, TierPolicy{ColdAfterMs: 1}, end)
	if err != nil {
		t.Fatal(err)
	}
	cold := census()
	if cold.ColdBytes+cold.HotBytes != 334561 || res.BytesBefore-res.BytesAfter != 1054698 {
		t.Fatalf("cold pass left %d bytes, reclaimed %d, want 334561 and 1054698 (%+v)",
			cold.ColdBytes+cold.HotBytes, res.BytesBefore-res.BytesAfter, cold)
	}
	if _, err := f.store.TierSchema(ds.SchemaID, TierPolicy{ColdAfterMs: 1, StubAfterMs: 1}, end); err != nil {
		t.Fatal(err)
	}
	stub := census()
	if stub.StubBlobs != 196 || stub.StubBytes != 47562 || stub.HotBlobs+stub.ColdBlobs != 0 {
		t.Fatalf("stub census = %+v, want 196 stubs of 47562 bytes and nothing else", stub)
	}
	agg, err := f.store.AggregateHistorical(ds.ID, AggSpec{T1: 0, T2: end, NTags: 4, WantTags: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Groups) != 1 || agg.Groups[0].Rows != 200_000 || agg.SummaryHits != 196 || agg.BlobBytesRead != 0 {
		t.Fatalf("aggregate over stubs = %+v, want 200000 rows from 196 folds, nothing decoded", agg)
	}
}

// TestTierBytesPinnedIRTS pins the cold pass on the shape the benchmark
// harness sets its query store up in: irregular sources sampled about every
// 10 ms with ±50 % jitter, written in frames that mix every source, then
// one cold pass at half the span. The census and a digest over every (key,
// record) of the three batch trees are exact: a maintenance change that
// moves either changes the store's bytes per point.
func TestTierBytesPinnedIRTS(t *testing.T) {
	f := newFixture(t, Config{}, 0)
	s := f.schema(t, "trade", 4)
	const nsrc, interval, npts, frame = 16, 10, 60_000, 500
	rng := rand.New(rand.NewSource(11))
	var srcs []*model.DataSource
	next, price := make([]int64, nsrc), make([]float64, nsrc)
	for i := range next {
		srcs = append(srcs, f.source(t, s.ID, false, interval))
		next[i], price[i] = 1_000_000+rng.Int63n(interval), 20+rng.Float64()*80
	}
	var pts []model.Point
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for n := 0; n < npts; n++ {
		i := 0
		for j := range next {
			if next[j] < next[i] {
				i = j
			}
		}
		ts := next[i]
		next[i] += interval/2 + rng.Int63n(interval)
		price[i] *= 1 + (rng.Float64()-0.5)*0.002
		pts = append(pts, model.Point{Source: srcs[i].ID, TS: ts, Values: []float64{
			price[i], []float64{0.25, 0.5, 1}[rng.Intn(3)], price[i] * 0.001, price[i] * 0.0005}})
		first, last = min(first, ts), max(last, ts)
		if len(pts) == frame {
			if err := f.store.WriteBatch(pts); err != nil {
				t.Fatal(err)
			}
			pts = pts[:0]
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.TierSchema(s.ID, TierPolicy{ColdAfterMs: (last - first) / 2}, last); err != nil {
		t.Fatal(err)
	}
	census, err := f.store.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, tr := range []*btree.Tree{f.store.rts, f.store.irts, f.store.mg} {
		cur := tr.First()
		for ; cur.Valid(); cur.Next() {
			v, err := cur.Value()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(binary.AppendUvarint(nil, uint64(len(cur.Key()))))
			h.Write(cur.Key())
			h.Write(binary.AppendUvarint(nil, uint64(len(v))))
			h.Write(v)
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
	}
	want := TierStats{HotBlobs: 256, ColdBlobs: 32, HotBytes: 704935, ColdBytes: 598571}
	if digest := hex.EncodeToString(h.Sum(nil)); census != want || digest != "b3c53bb4f61475cf43b042e6d2fa1ad00b6179a64d97df23eac83e82fa685423" {
		t.Fatalf("census %+v, digest %s; want %+v, b3c53bb4…", census, digest, want)
	}
}

// TestLateWriteStepsStubAside: a stub has no rows to merge with, so a run
// that lands on its key — here a late sample at a stubbed record's first
// timestamp — moves the stub to the nearest free key below instead of
// overwriting it. The stub keeps folding into aggregates and failing raw
// scans of its range, the late sample is counted beside it, and the store
// passes fsck.
func TestLateWriteStepsStubAside(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "env", 1)
	ds := f.source(t, s.ID, false, 10) // irregular: the late sample is a second one at its timestamp
	for i := 0; i < 64; i++ {
		if err := f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, err := f.store.TierSchema(s.ID, TierPolicy{StubAfterMs: 1}, f.cat.Stats(ds.ID).LastTS+1); err != nil || res.Stubbed != 3 {
		t.Fatalf("stub pass = %+v, %v; want the records at 0, 160 and 320 stubbed", res, err)
	}
	if err := f.store.Write(model.Point{Source: ds.ID, TS: 160, Values: []float64{100}}); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if blob, err := f.store.irts.Get(keyenc.SourceTime(ds.ID, 159)); err != nil || BlobTier(blob) != TierStub {
		t.Fatalf("record at 159: tier %v, %v; want the stub stepped aside", BlobTier(blob), err)
	}
	agg, err := f.store.AggregateHistorical(ds.ID, AggSpec{T1: 0, T2: math.MaxInt64, NTags: 1})
	if err != nil || len(agg.Groups) != 1 || agg.Groups[0].Rows != 65 || agg.Groups[0].Sum[0] != 164 {
		t.Fatalf("aggregate = %+v, %v; want 65 rows summing to 164", agg.Groups, err)
	}
	it, err := f.store.HistoricalScan(ds.ID, 150, 170, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := it.Next(); ok; _, ok = it.Next() {
	}
	if !errors.Is(it.Err(), ErrStubbedBlob) {
		t.Fatalf("raw scan over the stubbed range: %v, want ErrStubbedBlob", it.Err())
	}
	if _, corrupt, stale, err := f.store.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 {
		t.Fatalf("fsck: corrupt=%v stale=%v err=%v", corrupt, stale, err)
	}
}
