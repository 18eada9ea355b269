package tsstore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"odh/internal/btree"
	"odh/internal/keyenc"
	"odh/internal/model"
)

// writeRTSRun ingests n regular points for src starting at t0.
func writeRTSRun(t *testing.T, f *fixture, src *model.DataSource, t0 int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := model.Point{Source: src.ID, TS: t0 + int64(i)*src.IntervalMs, Values: []float64{float64(i), float64(i) * 2}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptOneBlob replaces the stored record at (src, ts) with garbage that
// fails decode, simulating blob-level rot below the page checksums.
func corruptOneBlob(t *testing.T, f *fixture, src, ts int64) {
	t.Helper()
	key := keyenc.SourceTime(src, ts)
	if _, err := f.store.rts.Get(key); err != nil {
		t.Fatalf("expected record at ts=%d: %v", ts, err)
	}
	if err := f.store.rts.Put(key, []byte{0xFF, 0xEE, 0xDD}); err != nil {
		t.Fatal(err)
	}
}

func TestStrictScanFailsOnCorruptBlob(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 0)
	sch := f.schema(t, "pmu", 2)
	src := f.source(t, sch.ID, true, 10)
	writeRTSRun(t, f, src, 0, 32) // 4 full batches at ts 0, 80, 160, 240
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptOneBlob(t, f, src.ID, 80)
	it, err := f.store.HistoricalScan(src.ID, 0, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Err() == nil {
		t.Fatal("strict scan over a corrupt blob reported no error")
	}
}

func TestLenientScanQuarantinesCorruptBlob(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, LenientScan: true}, 0)
	sch := f.schema(t, "pmu", 2)
	src := f.source(t, sch.ID, true, 10)
	writeRTSRun(t, f, src, 0, 32)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	corruptOneBlob(t, f, src.ID, 80)
	it, err := f.store.HistoricalScan(src.ID, 0, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it) // collect fails the test on iterator error
	// The corrupt batch held ts 80..150; everything else must survive.
	if len(got) != 24 {
		t.Fatalf("lenient scan yielded %d points, want 24", len(got))
	}
	for _, p := range got {
		if p.TS >= 80 && p.TS < 160 {
			t.Fatalf("point ts=%d from the quarantined batch leaked through", p.TS)
		}
	}
	if n := f.store.Stats().CorruptBlobsSkipped; n != 1 {
		t.Fatalf("CorruptBlobsSkipped = %d, want 1", n)
	}
}

func TestLenientScanQuarantinesCorruptMGBlob(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8, LenientScan: true}, 2)
	sch := f.schema(t, "env", 1)
	a := f.source(t, sch.ID, true, 1000)
	b := f.source(t, sch.ID, true, 1000)
	if a.Group != b.Group {
		t.Fatalf("sources not grouped: %d vs %d", a.Group, b.Group)
	}
	for i := int64(0); i < 4; i++ {
		for _, src := range []*model.DataSource{a, b} {
			if err := f.store.Write(model.Point{Source: src.ID, TS: i * 1000, Values: []float64{float64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the MG record at window 2000.
	key := keyenc.SourceTime(a.Group, 2000)
	if _, err := f.store.mg.Get(key); err != nil {
		t.Fatalf("expected MG record: %v", err)
	}
	if err := f.store.mg.Put(key, []byte{0x03}); err != nil { // truncated MG header
		t.Fatal(err)
	}
	it, err := f.store.HistoricalScan(a.ID, 0, 10_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 3 {
		t.Fatalf("lenient MG scan yielded %d points, want 3", len(got))
	}
	if n := f.store.Stats().CorruptBlobsSkipped; n == 0 {
		t.Fatal("CorruptBlobsSkipped not incremented for MG record")
	}
}

func TestVerifyBlobs(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 8}, 0)
	sch := f.schema(t, "pmu", 2)
	src := f.source(t, sch.ID, true, 10)
	writeRTSRun(t, f, src, 0, 32)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	checked, corrupt, stale, err := f.store.VerifyBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 4 || len(corrupt) != 0 || len(stale) != 0 {
		t.Fatalf("clean store: checked=%d corrupt=%v, want 4 clean", checked, corrupt)
	}
	corruptOneBlob(t, f, src.ID, 160)
	checked, corrupt, _, err = f.store.VerifyBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 4 || len(corrupt) != 1 {
		t.Fatalf("checked=%d corrupt=%v, want exactly 1 corrupt of 4", checked, corrupt)
	}
	if corrupt[0].Tree != "ts.rts" || corrupt[0].Source != src.ID || corrupt[0].TS != 160 {
		t.Fatalf("corrupt ref = %+v, want ts.rts/%d/160", corrupt[0], src.ID)
	}
}

// TestPutRefusesDamagedStub: the collision rule steps a stub it lands on a
// millisecond aside by re-anchoring the stub's summary, so a stub-flagged
// record without one is corrupt, and a put that meets it — the ingest
// flush's or maintenance's — fails typed, naming the record, with the tree
// as it was.
func TestPutRefusesDamagedStub(t *testing.T) {
	plant := func(t *testing.T, tree *btree.Tree, src, ts int64) []stored {
		t.Helper()
		if err := tree.Put(keyenc.SourceTime(src, ts), damagedStub); err != nil {
			t.Fatal(err)
		}
		recs, err := readRange(&home{tree: tree, id: src}, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	refused := func(t *testing.T, tree *btree.Tree, src, ts int64, before []stored, err error) {
		t.Helper()
		name := fmt.Sprintf("%s source=%d ts=%d", tree.Name(), src, ts)
		if !errors.Is(err, ErrCorruptBlob) || !strings.Contains(err.Error(), name) {
			t.Fatalf("err = %v, want ErrCorruptBlob naming %s", err, name)
		}
		after, err := readRange(&home{tree: tree, id: src}, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("the refused put changed the tree: %d records -> %d", len(before), len(after))
		}
	}
	t.Run("ingest", func(t *testing.T) {
		f := newFixture(t, Config{BatchSize: 8}, 0)
		src := f.source(t, f.schema(t, "pmu", 2).ID, true, 10)
		writeRTSRun(t, f, src, 0, 32) // records at 0, 80, 160, 240
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
		before := plant(t, f.store.rts, src.ID, 240)
		var err error
		for i := int64(0); i < 8 && err == nil; i++ { // the eighth point flushes a run keyed 240
			err = f.store.Write(model.Point{Source: src.ID, TS: 240 + i*10, Values: []float64{1, 2}})
		}
		refused(t, f.store.rts, src.ID, 240, before, err)
	})
	t.Run("coalesce", func(t *testing.T) {
		f := newFixture(t, Config{BatchSize: 8}, 0)
		sch := f.schema(t, "env", 1)
		src := f.source(t, sch.ID, false, 10)
		// Records of three points at 0, 30, ..., 150: undersized, so Coalesce
		// re-splits them into runs of eight, the second keyed 80.
		for i := int64(0); i < 16; i++ {
			if err := f.store.Write(model.Point{Source: src.ID, TS: i * 10, Values: []float64{float64(i)}}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if err := f.store.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
		before := plant(t, f.store.irts, src.ID, 80)
		_, err := f.store.Coalesce(sch.ID)
		refused(t, f.store.irts, src.ID, 80, before, err)
	})
}

func TestWALPointDecodeRejectsHugeCount(t *testing.T) {
	// A varint count near 2^61 makes count*8 wrap; the decoder must reject
	// it instead of passing the length check and blowing up on allocation.
	b := []byte{
		0x02,                                                       // source
		0x02,                                                       // ts
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F, // count
	}
	if _, err := DecodePointWAL(b); err == nil {
		t.Fatal("huge count accepted")
	}
}
