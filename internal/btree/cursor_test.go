package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"odh/internal/pagestore"
)

// cursorEntry is one (key, value) pair a cursor yielded, copied out.
type cursorEntry struct{ key, val []byte }

// walkFrom drains a cursor, reading each value the three ways the cursor
// offers and checking they agree: Value (a view, or a fresh overflow read),
// AppendValue (the copy) and AppendHead (a prefix).
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
		head, err := c.AppendHead(nil, 100)
		if err != nil || !bytes.Equal(head, val[:min(100, len(val))]) {
			t.Fatalf("AppendHead of %q = %d bytes, %v", c.Key(), len(head), err)
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
// with the package's corruption error — from Get, Value, AppendValue and
// where it reaches the damage AppendHead — without panicking, spinning or
// allocating what the reference claims.
func TestOverflowReadTrustsNothing(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	const valLen = 3*ovfChunkSize + 100 // four chain pages
	cases := []struct {
		name    string
		headOK  bool // the damage lies behind the first chain page
		corrupt func(tr *Tree, leaf pagestore.PageID, refOff int, chain []pagestore.PageID)
	}{
		{"length of 4 GiB", false, func(tr *Tree, leaf pagestore.PageID, refOff int, _ []pagestore.PageID) {
			patch(t, tr.store, leaf, refOff, u32(0xFFFFFFFF))
		}},
		{"length the chain falls short of", true, func(tr *Tree, leaf pagestore.PageID, refOff int, _ []pagestore.PageID) {
			patch(t, tr.store, leaf, refOff, u32(valLen+20*ovfChunkSize))
		}},
		{"length the chain runs past", true, func(tr *Tree, leaf pagestore.PageID, refOff int, _ []pagestore.PageID) {
			patch(t, tr.store, leaf, refOff, u32(valLen-2*ovfChunkSize))
		}},
		{"chunk longer than a page", false, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[0], 4, []byte{0xFF, 0xFF})
		}},
		{"chunk longer than a page, second page", true, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[1], 4, []byte{0xFF, 0xFF})
		}},
		{"looped chain", true, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
			patch(t, tr.store, chain[len(chain)-1], 0, u32(uint32(chain[0])))
		}},
		{"self-looped first page", true, func(tr *Tree, _ pagestore.PageID, _ int, chain []pagestore.PageID) {
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
			head, headErr := c.AppendHead(nil, 64)
			runtime.ReadMemStats(&after)
			for name, err := range map[string]error{"Get": getErr, "Value": valErr, "AppendValue": appErr} {
				if !errors.Is(err, errCorrupt) {
					t.Errorf("%s: %v, want errCorrupt", name, err)
				}
			}
			if tc.headOK {
				if headErr != nil || !bytes.Equal(head, val[:64]) {
					t.Errorf("AppendHead reads only the first page, which is sound: got %d bytes, %v", len(head), headErr)
				}
			} else if !errors.Is(headErr, errCorrupt) {
				t.Errorf("AppendHead: %v, want errCorrupt", headErr)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
				t.Errorf("reading a damaged reference allocated %d bytes, want < 1 MiB", grown)
			}
		})
	}
}
