package tsstore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"odh/internal/btree"
	"odh/internal/catalog"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
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

// TestPutRefusesDamagedStub: the collision rule, which every writer of the
// batch trees puts by, never overwrites the record at its key, and a record
// it cannot merge with — one that does not decode, or a stub-flagged one
// without a summary, which it could not step aside — fails the put typed,
// naming the record. Each writer meets such a record: the ingest flush of
// an RTS and an IRTS source, an MG row flush onto the group's record, a
// member's exact repeat overflowing its open row, an MG row flush whose
// displaced sample lands on the member's record, Coalesce and Reorganize.
// The trees and the catalog stay as they were, fsck still names the record,
// and the rows that were to land stay buffered: the next Flush fails the
// same way. Before the MG row flush put by the rule, it overwrote an
// unreadable group record and returned nil.
func TestPutRefusesDamagedStub(t *testing.T) {
	type writer struct {
		name string
		// setup returns the key (tree, id, ts) that act and the next Flush
		// both put at; the test damages the record there before act.
		setup func(t *testing.T, f *fixture) (tree *btree.Tree, id, ts int64, act func() error)
	}
	perSource := func(regular bool) func(t *testing.T, f *fixture) (*btree.Tree, int64, int64, func() error) {
		return func(t *testing.T, f *fixture) (*btree.Tree, int64, int64, func() error) {
			src := f.source(t, f.schema(t, "pmu", 1).ID, regular, 10)
			put := func(from int64) (err error) { // the eighth point flushes a run keyed from
				for i := int64(0); i < 8 && err == nil; i++ {
					err = f.store.Write(model.Point{Source: src.ID, TS: from + i*10, Values: []float64{float64(i)}})
				}
				return err
			}
			for from := int64(0); from < 320; from += 80 {
				if err := put(from); err != nil {
					t.Fatal(err)
				}
			}
			return f.store.treeFor(src.HistoricalStructure()), src.ID, 240, func() error { return put(240) }
		}
	}
	// mg sets up a group of a and b whose record at 0 holds both, and a's
	// repeat at 0 in an open row: flushing it displaces a's stored sample
	// into a's per-source range at 0. onGroup damages the group's record,
	// else a's per-source one.
	mg := func(onGroup bool, act func(f *fixture, a *model.DataSource) error) func(t *testing.T, f *fixture) (*btree.Tree, int64, int64, func() error) {
		return func(t *testing.T, f *fixture) (*btree.Tree, int64, int64, func() error) {
			sch := f.schema(t, "env", 1)
			a, b := f.source(t, sch.ID, false, 1000), f.source(t, sch.ID, false, 1000)
			if a.Group == 0 || a.Group != b.Group {
				t.Fatalf("sources not grouped: %d vs %d", a.Group, b.Group)
			}
			for _, src := range []*model.DataSource{a, b, a} {
				if err := f.store.Write(model.Point{Source: src.ID, TS: 0, Values: []float64{float64(src.ID)}}); err != nil {
					t.Fatal(err)
				}
			}
			tree, id := f.store.irts, a.ID
			if onGroup {
				tree, id = f.store.mg, a.Group
			}
			return tree, id, 0, func() error { return act(f, a) }
		}
	}
	flush := func(f *fixture, _ *model.DataSource) error { return f.store.Flush() }
	ingest := []writer{
		{"rts", perSource(true)},
		{"irts", perSource(false)},
		{"mg_row", mg(true, flush)},
		{"mg_overflow", mg(false, func(f *fixture, a *model.DataSource) error {
			return f.store.Write(model.Point{Source: a.ID, TS: 0, Values: []float64{2}})
		})},
		{"mg_displaced", mg(false, flush)},
	}
	coalesce := writer{"coalesce", func(t *testing.T, f *fixture) (*btree.Tree, int64, int64, func() error) {
		sch := f.schema(t, "env", 1)
		src := f.source(t, sch.ID, false, 10)
		// Records of three points at 0, 30, ..., 150: undersized, so Coalesce
		// re-splits them into runs of eight, the second keyed 80 — where the
		// buffered point at 80 flushes too.
		for i := int64(0); i < 16; i++ {
			if err := f.store.Write(model.Point{Source: src.ID, TS: i * 10, Values: []float64{float64(i)}}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 || i == 15 {
				if err := f.store.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.store.Write(model.Point{Source: src.ID, TS: 80, Values: []float64{8}}); err != nil {
			t.Fatal(err)
		}
		return f.store.irts, src.ID, 80, func() error { _, err := f.store.Coalesce(sch.ID); return err }
	}}
	reorganize := writer{"reorganize", mg(false, func(f *fixture, a *model.DataSource) error {
		_, err := f.store.Reorganize(a.SchemaID, math.MaxInt64)
		return err
	})}
	// snapshot is every home's records and statistics.
	snapshot := func(t *testing.T, f *fixture) (recs [][]stored, stats []model.SourceStats) {
		t.Helper()
		for _, sch := range f.cat.Schemas() {
			var homes []home
			for _, src := range f.cat.SourcesBySchema(sch.ID) {
				ds, _ := f.cat.Source(src)
				homes = append(homes, home{tree: f.store.treeFor(ds.HistoricalStructure()), id: src})
				stats = append(stats, f.cat.Stats(src))
			}
			for _, g := range f.cat.GroupsBySchema(sch.ID) {
				homes = append(homes, home{tree: f.store.mg, id: g})
				stats = append(stats, f.cat.GroupStats(g))
			}
			for _, h := range homes {
				r, err := readRange(&h, math.MinInt64, math.MaxInt64)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, r)
			}
		}
		return recs, stats
	}
	run := func(t *testing.T, w writer) {
		for _, damage := range []struct {
			name string
			blob []byte
		}{{"undecodable", []byte{blobMG}}, {"stub", damagedStub}} {
			t.Run(damage.name, func(t *testing.T) {
				f := newFixture(t, Config{BatchSize: 8}, 2)
				tree, id, ts, act := w.setup(t, f)
				if err := tree.Put(keyenc.SourceTime(id, ts), damage.blob); err != nil {
					t.Fatal(err)
				}
				recs, stats := snapshot(t, f)
				name := fmt.Sprintf("%s source=%d ts=%d", tree.Name(), id, ts)
				for _, step := range []struct {
					what string
					do   func() error
				}{{w.name, act}, {"the next Flush", f.store.Flush}} {
					if err := step.do(); !errors.Is(err, ErrCorruptBlob) || !strings.Contains(err.Error(), name) {
						t.Fatalf("%s: err = %v, want ErrCorruptBlob naming %s", step.what, err, name)
					}
					if r, s := snapshot(t, f); !reflect.DeepEqual(r, recs) || !reflect.DeepEqual(s, stats) {
						t.Fatalf("%s: the refused put changed the trees or the catalog", step.what)
					}
					_, corrupt, _, err := f.store.VerifyBlobs()
					if err != nil || !slices.Contains(corrupt, BlobRef{Tree: tree.Name(), Source: id, TS: ts}) {
						t.Fatalf("%s: fsck finds %v, %v: want it to name %s", step.what, corrupt, err, name)
					}
				}
			})
		}
	}
	t.Run("ingest", func(t *testing.T) {
		for _, w := range ingest {
			t.Run(w.name, func(t *testing.T) { run(t, w) })
		}
	})
	t.Run(coalesce.name, func(t *testing.T) { run(t, coalesce) })
	t.Run(reorganize.name, func(t *testing.T) { run(t, reorganize) })
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

// TestUnreadTailsStayUnread extends "a scan does not inspect what it
// prunes" to the tail of a record it keeps: a walk reads a record only
// through its last wanted column, so a page of the record's chain behind
// that column, damaged on disk, fails no read that does not want it. A
// projection of tag 0 returns exact rows and aggregates; SELECT * reads
// the page and fails typed, naming it, in strict mode and quarantines the
// record once in lenient mode; fsck names the page (VerifyPages) and the
// record (VerifyBlobs).
func TestUnreadTailsStayUnread(t *testing.T) {
	const n = 512 // one RTS record: tag 0's column, then tag 1's, 4 KB each
	file := pagestore.NewMemFile()
	var f fixture
	open := func(lenient bool) {
		page, err := pagestore.Open(file, pagestore.Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		cat, err := catalog.Open(page, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(page, cat, Config{BatchSize: n, DisableCompression: true, LenientScan: lenient})
		if err != nil {
			t.Fatal(err)
		}
		f = fixture{store: st, cat: cat, page: page}
	}
	open(false)
	src := f.source(t, f.schema(t, "pmu", 2).ID, true, 10)
	writeRTSRun(t, &f, src, 0, n)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := readRange(&home{tree: f.store.rts, id: src.ID}, math.MinInt64, math.MaxInt64)
	if err != nil || len(recs) != 1 {
		t.Fatalf("%d records, %v; want one", len(recs), err)
	}
	h, _ := parseBlobHeader(recs[0].blob)
	prefix, _ := h.wantedLen([]int{0}, len(recs[0].blob))
	chain := overflowChain(t, f.page, recs[0].blob)
	tail := chain[len(chain)-1]
	if (len(chain)-1)*btree.ChainChunk < prefix {
		t.Fatalf("tag 0 ends %d bytes in, on the chain's last page: the test needs a page behind it", prefix)
	}
	if err := f.page.Close(); err != nil {
		t.Fatal(err)
	}
	block := int64(tail) + 1 // blocks 0 and 1 are the meta slots; page id = block - 1
	if _, err := file.WriteAt([]byte{0xA5}, block*pagestore.DiskPageSize+pagestore.PageHeaderSize+100); err != nil {
		t.Fatal(err)
	}

	for _, lenient := range []bool{false, true} {
		open(lenient)
		before := f.store.Stats()
		it, err := f.store.HistoricalScan(src.ID, 0, math.MaxInt64, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, it)
		if len(got) != n {
			t.Fatalf("lenient=%v: a projection of tag 0 returns %d rows, want %d", lenient, len(got), n)
		}
		for i, p := range got {
			if p.TS != int64(i)*10 || p.Values[0] != float64(i) || !model.IsNull(tagOf(p.Values, 1)) {
				t.Fatalf("lenient=%v: row %d is %+v", lenient, i, p)
			}
		}
		res, err := f.store.AggregateHistorical(src.ID, AggSpec{T1: 0, T2: math.MaxInt64, NTags: 2, WantTags: []int{0}})
		if err != nil || len(res.Groups) != 1 || res.Groups[0].Rows != n || res.Groups[0].Sum[0] != n*(n-1)/2 {
			t.Fatalf("lenient=%v: an aggregate of tag 0: %+v, %v", lenient, res, err)
		}
		after := f.store.Stats()
		if after.CorruptBlobsSkipped != before.CorruptBlobsSkipped || after.BytesNotRead-before.BytesNotRead < 2*int64(len(recs[0].blob)-prefix) {
			t.Fatalf("lenient=%v: reads of tag 0 quarantined %d records and left %d bytes unread, want none and twice %d", lenient,
				after.CorruptBlobsSkipped-before.CorruptBlobsSkipped, after.BytesNotRead-before.BytesNotRead, len(recs[0].blob)-prefix)
		}

		it, err = f.store.HistoricalScan(src.ID, 0, math.MaxInt64, nil)
		if err != nil {
			t.Fatal(err)
		}
		var rows int
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			rows++
		}
		var bad *pagestore.ErrCorruptPage
		if lenient {
			if it.Err() != nil || rows != 0 || f.store.Stats().CorruptBlobsSkipped-after.CorruptBlobsSkipped != 1 {
				t.Fatalf("lenient SELECT *: %d rows, %v, %d quarantined; want the record quarantined once", rows, it.Err(), f.store.Stats().CorruptBlobsSkipped-after.CorruptBlobsSkipped)
			}
		} else if !errors.As(it.Err(), &bad) || bad.PageNo != tail {
			t.Fatalf("strict SELECT *: %v after %d rows, want the corrupt page %d", it.Err(), rows, tail)
		}
		if err := f.page.Close(); err != nil {
			t.Fatal(err)
		}
	}

	open(false)
	_, pages, err := f.page.VerifyPages()
	if err != nil || !slices.Equal(pages, []pagestore.PageID{tail}) {
		t.Fatalf("VerifyPages: %v, %v; want page %d", pages, err, tail)
	}
	_, corrupt, _, err := f.store.VerifyBlobs()
	if want := (BlobRef{Tree: "ts.rts", Source: src.ID, TS: 0}); err != nil || !slices.Equal(corrupt, []BlobRef{want}) {
		t.Fatalf("VerifyBlobs: %v, %v; want %v", corrupt, err, want)
	}
}
