package tsstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"odh/internal/btree"
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

// sliceLookups runs call, a slice of walkers over tree, and returns the
// buffer pool's lookups it made. call starts after forgetSnapshots, so its
// first walker seeks afresh; each later walker takes the scratch, and with
// it the leaf snapshot, the walker before it leaves.
func sliceLookups(t *testing.T, page *pagestore.Store, tree *btree.Tree, call func()) int64 {
	t.Helper()
	forgetSnapshots(t, tree)
	before := lookups(page)
	call()
	return lookups(page) - before
}

// forgetSnapshots makes the next seek into tree descend: a Put and a
// Delete of a key after every source's bump its version, which outdates
// every cursor's leaf snapshot, pooled ones included.
func forgetSnapshots(t *testing.T, tree *btree.Tree) {
	t.Helper()
	key := keyenc.SourceTime(math.MaxInt64, 0)
	if err := tree.Put(key, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(key); err != nil {
		t.Fatal(err)
	}
}

// TestLookbackReadsOnlyHeads: a short window's walk seeks back by the span
// bound of the tier that can still reach it, and of the records it meets
// there whose rows end before the window it reads the first page each.
// Over stores of multi-page records, with every overflow page after the
// first of each record behind the window made unreadable — met or, under
// the all-time MaxSpanMs the seek used before the per-tier bounds, would
// have been — a strict slice scan and a strict slice aggregate still
// return the oracle's rows, and the buffer pool's lookups are pinned. In
// these stores of one-leaf trees, a call costs 2 to seek once (the root is
// the leaf: a descent of one page and the leaf's copy; the statistics are
// a memory read): every later source's seek lands inside that snapshot
// of the unchanged tree and looks up nothing. Then per source, one page
// per record met behind the window, and of the one record kept its first
// page and then the rest of what the walk reads: the whole record for
// these walks of every tag, through tag 1 for the projected aggregate
// (tags 0 and 1; a hot record of 128 rows, whose timestamp stream is
// unsegmented, reads whole either way). The last source's cursor then
// finds the end of the tree (1) unless a later record stops it first.
func TestLookbackReadsOnlyHeads(t *testing.T) {
	const nsrc = 3
	type window struct {
		name      string
		t1, t2    int64
		behind    int   // records per source within MaxSpanMs that end before the window
		lookups   int64 // pinned pool lookups, of the scan and of the aggregate
		projected int64 // ... and of the aggregate of tag 1 alone
	}
	stores := []struct {
		name       string
		coldPoints int
		windows    []window
	}{
		// One cold record (key 0, rows to 511 500), then eight hot ones.
		{"cold then hot", 1024, []window{
			// Starts one millisecond after the cold record's last row, so
			// lo-MaxSpanMs still reaches ColdLastTS: the seek goes back the
			// cold record's 512 s and meets it (1); the first hot record holds
			// the rows (2 pages).
			{"behind the cold record", 511_501, 516_000, 1, 2 + nsrc*(1+2), 2 + nsrc*(1+2)},
			// Inside the last hot record. No non-hot record is keyed within
			// 512 s of the window, so the seek goes back HotSpanMs (63.5 s) and
			// lands on the record it keeps; the seven hot records between are
			// never met.
			{"behind seven hot records", 1_000_000, 1_005_000, 7, 2 + nsrc*(0+2) + 1, 2 + nsrc*(0+2) + 1},
		}},
		// Sixteen hot records, no tier pass ever: ColdLastTS has no value,
		// only the hot bound applies. The window starts one millisecond after
		// the last row of the record keyed 896 001, which the seek just meets.
		{"never tiered", 0, []window{
			{"behind a hot record", 959_503, 964_000, 1, 2 + nsrc*(1+2) + 1, 2 + nsrc*(1+2) + 1},
		}},
		// Tiered up to the newest record: two cold records, the second keyed
		// 512 001 (35 701 bytes, a 9-page chain). Every window is within
		// MaxSpanMs of ColdLastTS, so the bound is the all-time one, as
		// before. The projected aggregate reads that record through tag 1 —
		// header, segmented timestamps, presence bitmap and two of the four
		// 8-byte-a-row columns, 19 227 bytes — which is 5 pages: the first,
		// then on to the page holding tag 1's length, then the rest.
		{"all cold", 2048, []window{
			{"inside the last cold record", 1_000_000, 1_005_000, 0, 2 + nsrc*(0+9) + 1, 2 + nsrc*(0+5) + 1},
		}},
	}
	for _, st := range stores {
		f, s, truth := tieredRecords(t, Config{DisableCompression: true}, nsrc, st.coldPoints)
		for _, win := range st.windows {
			name := st.name + ", " + win.name
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
					t.Fatalf("%s: source %d keeps %d records, want 1", name, id, kept)
				}
			}
			if poisoned != nsrc*win.behind {
				t.Fatalf("%s: poisoned %d records behind the window, want %d", name, poisoned, nsrc*win.behind)
			}
			want := inWindow(truth, win.t1, win.t2)

			var rows []model.Point
			got := sliceLookups(t, f.page, f.store.irts, func() {
				it, err := f.store.SliceScanOpts(s.ID, win.t1, win.t2, nil, ScanOptions{NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				rows = collect(t, it)
			})
			sameBySource(t, name+": slice", bySource(rows), want)
			if got != win.lookups {
				t.Errorf("%s: SliceScanOpts looked up %d pages, want %d", name, got, win.lookups)
			}

			for _, agg := range []struct {
				wantTags []int
				lookups  int64
			}{{nil, win.lookups}, {[]int{1}, win.projected}} {
				var res *AggResult
				got := sliceLookups(t, f.page, f.store.irts, func() {
					var err error
					if res, err = f.store.AggregateSlice(s.ID, AggSpec{T1: win.t1, T2: win.t2, NTags: 4, ByID: true, WantTags: agg.wantTags, Opts: ScanOptions{NoCache: true}}); err != nil {
						t.Fatal(err)
					}
				})
				if got != agg.lookups {
					t.Errorf("%s: AggregateSlice of tags %v looked up %d pages, want %d", name, agg.wantTags, got, agg.lookups)
				}
				if len(res.Groups) != len(want) {
					t.Fatalf("%s: %d groups, want %d", name, len(res.Groups), len(want))
				}
				for _, g := range res.Groups {
					var sum float64
					for _, p := range want[g.ID] {
						sum += p.Values[1]
					}
					if g.Rows != int64(len(want[g.ID])) || g.Sum[1] != sum {
						t.Errorf("%s: source %d: %d rows sum %v, want %d rows sum %v", name, g.ID, g.Rows, g.Sum[1], len(want[g.ID]), sum)
					}
				}
			}
		}
		if st.coldPoints != 1024 {
			continue
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
			// Each take meets the record anew, as a step's seek does: a part
			// read of a value resumes where the last one on it ended.
			if err := c.open(&w.homes[0], 600_000, lo); err != nil || !c.ok {
				t.Fatal("no record to look back over", err)
			}
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
