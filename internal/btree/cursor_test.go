package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"odh/internal/pagestore"
)

// cursorEntry is one (key, value) pair a cursor yielded, copied out.
type cursorEntry struct{ key, val []byte }

// walkFrom drains a cursor, reading each value the three ways the cursor
// offers and checking they agree: Value (a view, or a fresh overflow read),
// AppendValue (the copy) and AppendValuePart (in parts: a prefix inside the
// first page, the rest of that page, a cut inside the chain, the rest).
func walkFrom(t *testing.T, c *Cursor) []cursorEntry {
	t.Helper()
	var out []cursorEntry
	for ; c.Valid(); c.Next() {
		val, err := c.Value()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := c.AppendValue([]byte("x"))
		if err != nil || !bytes.Equal(cp[1:], val) {
			t.Fatalf("AppendValue of %q = %d bytes, %v; Value has %d", c.Key(), len(cp)-1, err, len(val))
		}
		if c.ValueSize() != len(val) {
			t.Fatalf("ValueSize of %q = %d, Value has %d", c.Key(), c.ValueSize(), len(val))
		}
		var parts []byte
		for _, end := range []int{100, ChainChunk, 2 * len(val) / 3, -1, 7} {
			want := len(val)
			if end >= 0 {
				want = max(len(parts), min(end, len(val)))
			}
			if parts, err = c.AppendValuePart(parts, end); err != nil || !bytes.Equal(parts, val[:want]) {
				t.Fatalf("AppendValuePart of %q through %d = %d bytes, %v; want the value's first %d", c.Key(), end, len(parts), err, want)
			}
		}
		out = append(out, cursorEntry{append([]byte(nil), c.Key()...), cp[1:]})
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCursorDifferential walks random trees — inline and overflow values,
// deletions that empty whole leaves — from random seek targets (before,
// between and after the leaves' keys) and compares with a sorted reference:
// same keys, same values, strictly ascending. A reused cursor (Reset) must
// behave as a fresh one.
func TestCursorDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(t, fmt.Sprintf("diff-%d", seed))
		ref := map[string][]byte{}
		key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i*2)) } // odd numbers stay free for seeks
		const n = 1500
		for _, i := range rng.Perm(n) {
			var v []byte
			switch rng.Intn(10) {
			case 0:
				v = make([]byte, maxInlineValue+1+rng.Intn(3*pagestore.PageSize)) // overflow chain
			case 1:
				v = nil
			default:
				v = make([]byte, rng.Intn(120))
			}
			rng.Read(v)
			if err := tr.Put(key(i), v); err != nil {
				t.Fatal(err)
			}
			ref[string(key(i))] = v
		}
		// Delete runs long enough to empty leaves, and a random scatter.
		for run := 0; run < 3; run++ {
			start := rng.Intn(n - 400)
			for i := start; i < start+300+rng.Intn(100); i++ {
				if _, ok := ref[string(key(i))]; ok {
					if err := tr.Delete(key(i)); err != nil {
						t.Fatal(err)
					}
					delete(ref, string(key(i)))
				}
			}
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		var reused Cursor
		targets := [][]byte{nil, []byte("a"), []byte("z"), key(0), key(n - 1)}
		for i := 0; i < 60; i++ {
			targets = append(targets, []byte(fmt.Sprintf("k%05d", rng.Intn(2*n+2))))
		}
		for _, target := range targets {
			want := keys[sort.SearchStrings(keys, string(target)):]
			reused.Reset(tr, target)
			for name, c := range map[string]*Cursor{"Seek": tr.Seek(target), "Reset": &reused} {
				got := walkFrom(t, c)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s(%q): %d entries, want %d", seed, name, target, len(got), len(want))
				}
				for j, e := range got {
					if string(e.key) != want[j] || !bytes.Equal(e.val, ref[want[j]]) {
						t.Fatalf("seed %d %s(%q): entry %d is %q (%d bytes), want %q (%d bytes)",
							seed, name, target, j, e.key, len(e.val), want[j], len(ref[want[j]]))
					}
					if j > 0 && bytes.Compare(got[j-1].key, e.key) >= 0 {
						t.Fatalf("seed %d %s(%q): not strictly ascending at %d", seed, name, target, j)
					}
				}
			}
		}
	}
}

// TestCursorsWalkWhileOtherRangesSplit: cursors over a fixed set of keys
// must yield each of them exactly once, in order, while a writer inserts
// between them — other keys, same leaves, so the leaves under the cursors
// split again and again. Run under -race -cpu 1,2,4 in CI.
func TestCursorsWalkWhileOtherRangesSplit(t *testing.T) {
	tr := newTree(t, "split")
	const fixed = 400
	fixedKey := func(i int) []byte { return []byte(fmt.Sprintf("f%04d", i)) }
	for i := 0; i < fixed; i++ {
		if err := tr.Put(fixedKey(i), fixedKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		val := make([]byte, 200)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Sorts between two fixed keys; a few spill to overflow pages.
			k := []byte(fmt.Sprintf("f%04d.%06d", rng.Intn(fixed), i))
			v := val
			if i%50 == 0 {
				v = make([]byte, 2*pagestore.PageSize)
			}
			if err := tr.Put(k, v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var c Cursor
			for round := 0; round < 30; round++ {
				from := (r*37 + round*11) % fixed
				next := from
				var prev []byte
				for c.Reset(tr, fixedKey(from)); c.Valid(); c.Next() {
					k := c.Key()
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("reader %d: %q after %q", r, k, prev)
						return
					}
					prev = append(prev[:0], k...)
					if len(k) != 5 {
						continue // the writer's
					}
					if !bytes.Equal(k, fixedKey(next)) {
						t.Errorf("reader %d from %d: met %q, want %q", r, from, k, fixedKey(next))
						return
					}
					if v, err := c.Value(); err != nil || !bytes.Equal(v, k) {
						t.Errorf("reader %d: value of %q = %q, %v", r, k, v, err)
						return
					}
					next++
				}
				if err := c.Err(); err != nil || next != fixed {
					t.Errorf("reader %d from %d: stopped at %d of %d, %v", r, from, next, fixed, err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorViewsDieWhenTheCursorMoves pins the view-lifetime contract: Key
// and an inline Value are views of the leaf snapshot — no allocation per
// entry — so once the cursor has moved on to another leaf the bytes behind a
// retained view are that leaf's, while AppendValue's copy stays what it was.
func TestCursorViewsDieWhenTheCursorMoves(t *testing.T) {
	tr := newTree(t, "views")
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("k%06d", i))
		if err := tr.Put(k, append([]byte("value-of-"), k...)); err != nil {
			t.Fatal(err)
		}
	}
	c := tr.First()
	keyView := c.Key()
	valView, _ := c.Value()
	keyCopy := append([]byte(nil), keyView...)
	valCopy, _ := c.AppendValue(nil)
	if !bytes.Equal(valView, valCopy) || string(valCopy) != "value-of-k000000" {
		t.Fatalf("first entry: view %q, copy %q", valView, valCopy)
	}
	leaf := c.leaf
	for c.Valid() && c.leaf == leaf {
		c.Next()
	}
	if !c.Valid() {
		t.Fatal("tree has one leaf; the test needs two")
	}
	if bytes.Equal(keyView, keyCopy) && bytes.Equal(valView, valCopy) {
		t.Fatal("views retained across a leaf change still read the old entry: the cursor copies per cell again")
	}
	if string(keyCopy) != "k000000" || string(valCopy) != "value-of-k000000" {
		t.Fatalf("copies changed under the cursor: %q %q", keyCopy, valCopy)
	}
}

// TestCursorAllocationsDoNotGrowWithTheLeaf: a seek and ten steps allocate
// a constant — the cursor and its page copy — whether a leaf holds a few
// cells or hundreds, and nothing at all on a reused cursor.
func TestCursorAllocationsDoNotGrowWithTheLeaf(t *testing.T) {
	for _, valLen := range []int{4, 400} {
		tr := newTree(t, fmt.Sprintf("allocs-%d", valLen))
		for i := 0; i < 3000; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, valLen)); err != nil {
				t.Fatal(err)
			}
		}
		target := []byte("k001000")
		walk := func(c *Cursor) {
			for i := 0; i < 10; i++ {
				if _, err := c.Value(); err != nil || !c.Valid() {
					t.Fatal("cursor ended early", err)
				}
				c.Next()
			}
		}
		if n := testing.AllocsPerRun(50, func() { walk(tr.Seek(target)) }); n > 3 {
			t.Errorf("%d-byte values: Seek + 10 Next allocates %v times, want the cursor, its page and at most one boundary key", valLen, n)
		}
		var c Cursor
		c.Reset(tr, nil)
		for c.Valid() {
			c.Next() // grows the boundary-key buffer once
		}
		if n := testing.AllocsPerRun(50, func() { c.Reset(tr, target); walk(&c) }); n != 0 {
			t.Errorf("%d-byte values: Reset + 10 Next allocates %v times, want 0", valLen, n)
		}
	}
}

// overflowCell returns the page and offset of the 8-byte overflow
// reference stored for key.
func overflowCell(t *testing.T, tr *Tree, key []byte) (pagestore.PageID, int) {
	t.Helper()
	leaf, err := tr.findLeaf(key)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := tr.store.Get(leaf)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Unpin()
	n := node{fr.Data()}
	idx, found := n.search(key)
	_, ref, ovf := n.leafCell(idx)
	if !found || !ovf {
		t.Fatalf("%q is not an overflow entry", key)
	}
	return leaf, n.slotOffset(idx) + 4 + len(key) + len(ref) - 8
}

// patch overwrites bytes of a page the way a tree mutation would.
func patch(t *testing.T, s *pagestore.Store, pid pagestore.PageID, off int, b []byte) {
	t.Helper()
	s.BeginWrite()
	defer s.EndWrite()
	fr, err := s.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	copy(fr.Data()[off:], b)
	fr.MarkDirty()
	fr.Unpin()
}

// TestOverflowReadTrustsNothing: a reference that claims more bytes than the
// store has pages for, a length the chain does not deliver, a page that
// claims a chunk longer than a page and a chain bent into a loop all fail
// with the package's corruption error — from Get, Value, AppendValue, a
// read in parts resumed after the first page, and where it reaches the
// damage a part read that stops early — without panicking, spinning or
// allocating what the reference claims. A part read that stops before the
// damage returns the value's bytes.
func TestOverflowReadTrustsNothing(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	const valLen = 3*ovfChunkSize + 100 // four chain pages
	// The part reads: inside the first page, and a prefix into the second.
	const head, prefix = 64, ChainChunk + 100
	cases := []struct {
		name     string
		headOK   bool // the damage lies behind the first 64 bytes
		prefixOK bool // ... and behind the prefix, a hundred bytes into page two
		corrupt  func(tr *Tree, leaf pagestore.PageID, refOff int, chain []pagestore.PageID)
	}{
		{"length of 4 GiB", false, false, func(tr *Tree, leaf pagestore.PageID, refOff int, _ []pagestore.PageID) {
			patch(t, tr.store, leaf, refOff, u32(0xFFFFFFFF))
		}},
		{"length the chain falls short of", true, true, func(tr *Tree, leaf pagestore.PageID, refOff int, _ []pagestore.PageID) {
			patch(t, tr.store, leaf, refOff, u32(valLen+20*ovfChunkSize))
		}},
		{"length the chain runs past", true, false, func(tr *Tree, leaf pagestore.PageID, refOff int, _ []pagestore.PageID) {
			patch(t, tr.store, leaf, refOff, u32(valLen-2*ovfChunkSize))
		}},
		{"chain that ends short", true, false, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[0], 0, u32(uint32(pagestore.InvalidPage)))
		}},
		{"chunk longer than a page", false, false, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[0], 4, []byte{0xFF, 0xFF})
		}},
		{"chunk longer than a page, second page", true, false, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[1], 4, []byte{0xFF, 0xFF})
		}},
		{"chunk longer than a page, last page", true, true, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[3], 4, []byte{0xFF, 0xFF})
		}},
		{"looped chain", true, true, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[len(chain)-1], 0, u32(uint32(chain[0])))
		}},
		{"second page looped to the first", true, true, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[1], 0, u32(uint32(chain[0])))
		}},
		{"self-looped first page", true, false, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[0], 0, u32(uint32(chain[0])))
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t, fmt.Sprintf("ovf-corrupt-%d", i))
			// Enough other pages that 20 more chunks are not "more than the store holds".
			for j := 0; j < 40; j++ {
				if err := tr.Put([]byte(fmt.Sprintf("pad%02d", j)), make([]byte, 2*pagestore.PageSize)); err != nil {
					t.Fatal(err)
				}
			}
			key, val := []byte("victim"), make([]byte, valLen)
			rand.New(rand.NewSource(1)).Read(val)
			if err := tr.Put(key, val); err != nil {
				t.Fatal(err)
			}
			leaf, refOff := overflowCell(t, tr, key)
			fr, err := tr.store.Get(leaf)
			if err != nil {
				t.Fatal(err)
			}
			var chain []pagestore.PageID
			for pid := pagestore.PageID(binary.LittleEndian.Uint32(fr.Data()[refOff+4:])); pid != pagestore.InvalidPage; {
				chain = append(chain, pid)
				p, err := tr.store.Get(pid)
				if err != nil {
					t.Fatal(err)
				}
				pid = pagestore.PageID(binary.LittleEndian.Uint32(p.Data()))
				p.Unpin()
			}
			fr.Unpin()
			if len(chain) != 4 {
				t.Fatalf("chain of %d pages, want 4", len(chain))
			}
			tc.corrupt(tr, leaf, refOff, chain)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, getErr := tr.Get(key)
			c := tr.Seek(key)
			if !c.Valid() || !bytes.Equal(c.Key(), key) {
				t.Fatal("cursor did not land on the damaged entry")
			}
			_, valErr := c.Value()
			_, appErr := c.AppendValue(nil)
			// In parts: the first page, then on from page two to the end.
			_, firstErr := c.AppendValuePart(nil, ChainChunk)
			_, restErr := c.AppendValuePart(nil, -1)
			c.Reset(tr, key)
			headPart, headErr := c.AppendValuePart(nil, head)
			c.Reset(tr, key)
			prefixPart, prefixErr := c.AppendValuePart(nil, prefix)
			runtime.ReadMemStats(&after)
			resumedErr := firstErr
			if resumedErr == nil {
				resumedErr = restErr
			}
			for name, err := range map[string]error{"Get": getErr, "Value": valErr, "AppendValue": appErr, "AppendValuePart resumed after page one": resumedErr} {
				if !errors.Is(err, errCorrupt) {
					t.Errorf("%s: %v, want errCorrupt", name, err)
				}
			}
			for _, part := range []struct {
				name string
				ok   bool
				got  []byte
				err  error
				want []byte
			}{{"a head inside page one", tc.headOK, headPart, headErr, val[:head]}, {"a prefix into page two", tc.prefixOK, prefixPart, prefixErr, val[:prefix]}} {
				if part.ok {
					if part.err != nil || !bytes.Equal(part.got, part.want) {
						t.Errorf("AppendValuePart, %s, stops before the damage: got %d bytes, %v", part.name, len(part.got), part.err)
					}
				} else if !errors.Is(part.err, errCorrupt) {
					t.Errorf("AppendValuePart, %s: %v, want errCorrupt", part.name, part.err)
				}
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Errorf("reading a damaged reference allocated %d bytes, want < 1 MiB", grown)
			}
		})
	}
}

// TestCursorSnapshotReuse: for every target in and around the keys of a
// cursor's leaf snapshot, a Reset lands where a fresh Seek lands, and one
// inside them is answered from the snapshot with no page lookup at all. A
// Put or Delete between the snapshot and the Reset — an in-place
// overwrite, one that frees an overflow chain, inserts that split the
// leaf, a deletion — always forces a fresh descent.
func TestCursorSnapshotReuse(t *testing.T) {
	tr := newTree(t, "reuse")
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i*2)) }
	for i := 0; i < 2000; i++ {
		v := []byte(fmt.Sprintf("v%05d", i))
		if i%9 == 0 {
			v = bytes.Repeat(v, pagestore.PageSize/3) // a chain of two pages
		}
		if err := tr.Put(key(i), v); err != nil {
			t.Fatal(err)
		}
	}
	lookups := func() int64 { st := tr.store.Stats(); return st.Hits + st.Misses }
	// same walks a few entries with both cursors: keys and values agree.
	same := func(what string, c, fresh *Cursor) {
		t.Helper()
		for step := 0; step < 4; step++ {
			if c.Valid() != fresh.Valid() {
				t.Fatalf("%s, step %d: valid %v, a fresh Seek's %v", what, step, c.Valid(), fresh.Valid())
			}
			if !c.Valid() {
				return
			}
			v, err := c.AppendValue(nil)
			fv, ferr := fresh.AppendValue(nil)
			if !bytes.Equal(c.Key(), fresh.Key()) || err != nil || ferr != nil || !bytes.Equal(v, fv) {
				t.Fatalf("%s, step %d: at %q (%d bytes, %v), a fresh Seek at %q (%d bytes, %v)", what, step, c.Key(), len(v), err, fresh.Key(), len(fv), ferr)
			}
			c.Next()
			fresh.Next()
		}
	}
	var c Cursor
	c.Reset(tr, key(1000))
	snap := node{append([]byte(nil), c.page...)}
	first, last := snap.cellKey(0), snap.cellKey(snap.ncells()-1)
	if bytes.Equal(first, key(0)) || snap.ncells() < 3 {
		t.Fatal("the test needs a leaf in the middle of the tree")
	}
	var targets [][]byte
	for i := 0; i < snap.ncells(); i++ {
		k := snap.cellKey(i)
		targets = append(targets, k, append(slices.Clone(k), 0), k[:len(k)-1]) // the key, just after, just before
	}
	for _, target := range targets {
		in := bytes.Compare(first, target) <= 0 && bytes.Compare(target, last) <= 0
		c.Reset(tr, first) // the snapshot again, reused or not
		before := lookups()
		c.Reset(tr, target)
		if got := lookups() - before; in != (got == 0) {
			t.Fatalf("Reset(%q), inside the snapshot %v: %d page lookups", target, in, got)
		}
		same(fmt.Sprintf("Reset(%q)", target), &c, tr.Seek(target))
	}

	// A key of the snapshot with an inline value and one with an overflow
	// value, both between its first and last.
	var inline, ovf []byte
	for i := 1; i < snap.ncells()-1; i++ {
		if _, _, o := snap.leafCell(i); o && ovf == nil {
			ovf = snap.cellKey(i)
		} else if !o && inline == nil {
			inline = snap.cellKey(i)
		}
	}
	if inline == nil || ovf == nil {
		t.Fatal("the snapshot lacks an inline or an overflow value between its ends")
	}
	mutations := []struct {
		name string
		at   []byte
		do   func() error
	}{
		{"in-place overwrite", inline, func() error { return tr.Put(inline, []byte("w"+string(inline[1:]))) }},
		{"overflow chain freed", ovf, func() error { return tr.Put(ovf, []byte("short")) }},
		{"leaf split", inline, func() error {
			for j := 0; j < 40; j++ {
				if err := tr.Put(append(slices.Clone(inline), fmt.Sprintf(".%02d", j)...), make([]byte, 300)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"delete", inline, func() error { return tr.Delete(inline) }},
	}
	for _, m := range mutations {
		c.Reset(tr, m.at)
		leaf := c.leaf
		if err := m.do(); err != nil {
			t.Fatal(err)
		}
		before := lookups()
		c.Reset(tr, m.at)
		if lookups() == before {
			t.Fatalf("%s: Reset answered from a snapshot the mutation outdated", m.name)
		}
		if n := (node{c.page}); m.name == "leaf split" && (c.leaf != leaf || bytes.Equal(n.cellKey(n.ncells()-1), last)) {
			t.Fatalf("%s: the leaf did not split, or moved", m.name)
		}
		same(m.name, &c, tr.Seek(m.at))
	}
}
