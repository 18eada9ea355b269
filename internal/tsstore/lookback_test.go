package tsstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
)

// Overflow page layout (internal/btree/node.go): next page u32, chunk
// length u16, then the chunk.
const ovfHeader = 6

// overflowChain returns the pages of the overflow chain that holds blob,
// found by content: the first page of a chain starts with the value's own
// first bytes.
func overflowChain(t *testing.T, page *pagestore.Store, blob []byte) []pagestore.PageID {
	t.Helper()
	n := min(len(blob), pagestore.PageSize-ovfHeader)
	for id := pagestore.PageID(1); uint32(id) < page.NumPages(); id++ {
		fr, err := page.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		d := fr.Data()
		found := int(binary.LittleEndian.Uint16(d[4:])) == n && bytes.Equal(d[ovfHeader:ovfHeader+n], blob[:n])
		fr.Unpin()
		if !found {
			continue
		}
		var chain []pagestore.PageID
		for pid := id; pid != pagestore.InvalidPage; {
			chain = append(chain, pid)
			fr, err := page.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			pid = pagestore.PageID(binary.LittleEndian.Uint32(fr.Data()))
			fr.Unpin()
		}
		return chain
	}
	t.Fatalf("no overflow chain starts with the %d-byte blob", len(blob))
	return nil
}

// poisonChainTail makes every page of the chain after the first unreadable
// for any code that follows the chain: a chunk length no page can hold.
func poisonChainTail(t *testing.T, page *pagestore.Store, chain []pagestore.PageID) {
	t.Helper()
	page.BeginWrite()
	defer page.EndWrite()
	for _, pid := range chain[1:] {
		fr, err := page.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(fr.Data()[4:], 0xFFFF)
		fr.MarkDirty()
		fr.Unpin()
	}
}

func lookups(page *pagestore.Store) int64 {
	st := page.Stats()
	return st.Hits + st.Misses
}

// TestLookbackReadsOnlyHeads: over a store of one cold and eight hot
// records per source, all of them multi-page values, a short window's walk
// reaches back over records whose rows end before it. With every overflow
// page after the first of each such record made unreadable, a strict slice
// scan and a strict slice aggregate still return the oracle's rows, and the
// buffer pool sees exactly one lookup per pruned record. Per source, in this
// store of one-leaf trees: 4 to get there (the catalog's stats entry and the
// seek, a descent and a leaf copy each), one head page per record met, and
// the 2-page chain of the one record kept; the last source's cursor then
// finds the end of the tree (1) unless a later record stops it first.
func TestLookbackReadsOnlyHeads(t *testing.T) {
	const nsrc = 3
	f, s, truth := coldThenHot(t, Config{DisableCompression: true}, nsrc)
	windows := []struct {
		name            string
		t1, t2          int64
		pruned          int   // lookback-only records per source
		scan, aggregate int64 // pinned pool lookups
	}{
		// Starts one millisecond after the cold record's last row: the lookback
		// just reaches the cold record (key 0), the first hot record holds
		// the rows.
		{"behind the cold record", 511_501, 516_000, 1, nsrc * (4 + 2 + 2), nsrc * (4 + 2 + 2)},
		// Inside the last hot record: the lookback (512 s, the cold record's
		// span) reaches the seven hot records before it.
		{"behind seven hot records", 1_000_000, 1_005_000, 7, nsrc*(4+8+2) + 1, nsrc*(4+8+2) + 1},
	}
	for _, win := range windows {
		poisoned := 0
		for id := range truth {
			lookback := f.cat.Stats(id).MaxSpanMs + 1
			recs, err := readRange(&home{tree: f.store.irts, id: id}, win.t1-lookback, win.t2)
			if err != nil {
				t.Fatal(err)
			}
			kept := 0
			for _, r := range recs {
				if _, _, last, ok := blobSpan(r); !ok {
					t.Fatalf("source %d ts %d: no span", id, r.ts)
				} else if last >= win.t1 {
					kept++
					continue
				}
				chain := overflowChain(t, f.page, r.blob)
				if len(chain) < 2 {
					t.Fatalf("source %d ts %d: a %d-byte record in %d page(s); the test needs multi-page values", id, r.ts, len(r.blob), len(chain))
				}
				poisonChainTail(t, f.page, chain)
				poisoned++
			}
			if kept != 1 {
				t.Fatalf("%s: source %d keeps %d records, want 1", win.name, id, kept)
			}
		}
		if poisoned != nsrc*win.pruned {
			t.Fatalf("%s: poisoned %d lookback-only records, want %d", win.name, poisoned, nsrc*win.pruned)
		}
		want := inWindow(truth, win.t1, win.t2)

		before := lookups(f.page)
		it, err := f.store.SliceScanOpts(s.ID, win.t1, win.t2, nil, ScanOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		sameBySource(t, win.name+": slice", bySource(collect(t, it)), want)
		if got := lookups(f.page) - before; got != win.scan {
			t.Errorf("%s: SliceScanOpts looked up %d pages, want %d", win.name, got, win.scan)
		}

		before = lookups(f.page)
		res, err := f.store.AggregateSlice(s.ID, AggSpec{T1: win.t1, T2: win.t2, NTags: 4, ByID: true, Opts: ScanOptions{NoCache: true}})
		if err != nil {
			t.Fatal(err)
		}
		if got := lookups(f.page) - before; got != win.aggregate {
			t.Errorf("%s: AggregateSlice looked up %d pages, want %d", win.name, got, win.aggregate)
		}
		if len(res.Groups) != len(want) {
			t.Fatalf("%s: %d groups, want %d", win.name, len(res.Groups), len(want))
		}
		for _, g := range res.Groups {
			var sum float64
			for _, p := range want[g.ID] {
				sum += p.Values[1]
			}
			if g.Rows != int64(len(want[g.ID])) || g.Sum[1] != sum {
				t.Errorf("%s: source %d: %d rows sum %v, want %d rows sum %v", win.name, g.ID, g.Rows, g.Sum[1], len(want[g.ID]), sum)
			}
		}
	}
	// The poisoned tails are really unreadable: a walk that needs them fails.
	it, err := f.store.SliceScanOpts(s.ID, math.MinInt64, math.MaxInt64, nil, ScanOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Err() == nil {
		t.Fatal("a whole-history scan read the poisoned records without an error")
	}
}

// TestPrunedTakeAllocatesNothing: deciding that the chunk does not keep a
// record — the head read, the span parse — touches no heap once the
// walker's buffer has held one head.
func TestPrunedTakeAllocatesNothing(t *testing.T) {
	f, _, truth := coldThenHot(t, Config{DisableCompression: true}, 1)
	for id := range truth {
		ds, _ := f.cat.Source(id)
		const lo = 1_000_000
		w := f.store.sourceWalker(ds, lo, lo+5_000, nil, ScanOptions{NoCache: true})
		w.walkScratch = new(walkScratch)
		var c recCursor
		if err := c.open(&w.homes[0], 600_000, lo); err != nil || !c.ok {
			t.Fatal("no record to look back over", err)
		}
		var rec walkRec
		take := func() {
			rec = walkRec{home: c.home, ts: c.ts}
			if keep, err := w.take(&c, &rec, lo); keep || err != nil {
				t.Fatalf("take kept a record that ends before the window: %v, %v", keep, err)
			}
		}
		take() // grows w.buf
		if n := testing.AllocsPerRun(100, take); n != 0 {
			t.Errorf("a pruned take allocates %v times, want 0", n)
		}
		if len(w.buf) != 0 {
			t.Errorf("a pruned take left %d bytes in the step's buffer", len(w.buf))
		}
	}
}

// TestReadRangeHandsOutStableBytes: the maintenance read keeps what it
// reads, so its blobs — inline values included, which a cursor only lends —
// must still be the stored records after the cursor has moved on over
// many leaves.
func TestReadRangeHandsOutStableBytes(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 4}, 0) // small records: inline values, many per leaf
	sch := f.schema(t, "meter", 2)
	ds := f.source(t, sch.ID, false, 100)
	for j := 0; j < 4000; j++ {
		p := model.Point{Source: ds.ID, TS: int64(j)*100 + int64(j%3), Values: []float64{float64(j), float64(j % 13)}}
		if err := f.store.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := readRange(&home{tree: f.store.irts, id: ds.ID}, math.MinInt64, math.MaxInt64)
	if err != nil || len(recs) != 1000 {
		t.Fatalf("readRange: %d records, %v; want 1000", len(recs), err)
	}
	if h := f.store.irts.Height(); h < 2 {
		t.Fatalf("tree height %d: the records fit one leaf", h)
	}
	for _, r := range recs {
		stored, err := f.store.irts.Get(keyenc.SourceTime(ds.ID, r.ts))
		if err != nil || !bytes.Equal(stored, r.blob) {
			t.Fatalf("record at ts %d: readRange's bytes are not the stored ones (%v)", r.ts, err)
		}
		if len(r.blob) > 1024 {
			t.Fatalf("record at ts %d is %d bytes: not an inline value", r.ts, len(r.blob))
		}
	}
}
