package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"odh/internal/fault"
	"odh/internal/pagestore"
)

// TestFailedLeafSplitLosesNothing: a Put whose leaf split cannot allocate
// its right page (the write of the dirty frame that Allocate must evict
// fails) changes nothing. The entry count, the value bytes, the structure
// and a replaced key's old value, overflow chain included, are the tree's
// from before the Put, and an overflow chain written for the new value is
// freed again.
func TestFailedLeafSplitLosesNothing(t *testing.T) {
	const pool = 8
	for _, tc := range []struct {
		name string
		key  string
		val  []byte
		// writesBefore is how many evictions succeed before the split's:
		// one for a new value's overflow page.
		writesBefore int
	}{
		{"insert", "k999", bytes.Repeat([]byte{'n'}, 100), 0},
		{"replace an overflow value inline", "big", bytes.Repeat([]byte{'r'}, 600), 0},
		{"insert an overflow value", "k999", bytes.Repeat([]byte{'o'}, 1500), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ff := fault.Wrap(pagestore.NewMemFile())
			store, err := pagestore.Open(ff, pagestore.Options{PoolPages: pool})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			tr, err := Open(store, "t")
			if err != nil {
				t.Fatal(err)
			}
			bigVal := bytes.Repeat([]byte{'b'}, 2000)
			if err := tr.Put([]byte("big"), bigVal); err != nil {
				t.Fatal(err)
			}
			// Fill the root leaf with 100-byte values, then 1-byte ones,
			// until not even an overflow reference fits.
			for _, size := range []int{100, 1} {
				val := bytes.Repeat([]byte{'v'}, size)
				for i := 0; rootFree(t, tr) >= len(makeLeafCell([]byte("k000"), val, false))+slotSize; i++ {
					if err := tr.Put([]byte(fmt.Sprintf("k%03d-%d", i, size)), val); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tr.Height() != 1 {
				t.Fatalf("height %d while filling the root leaf", tr.Height())
			}
			count, vbytes := tr.Count(), tr.ValueBytes()
			old, err := tr.Get([]byte(tc.key))
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}

			// Push every tree page out behind dirty frames, then read the
			// root leaf back: the pool is the leaf and pool-1 dirty frames,
			// so the split's Allocate must write one of them out.
			for range pool {
				_, fr, err := store.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				fr.MarkDirty()
				fr.Unpin()
			}
			rootFree(t, tr)
			ff.FailWritesAfter(tc.writesBefore)
			if err := tr.Put([]byte(tc.key), tc.val); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Put = %v, want the injected write fault", err)
			}
			ff.FailWritesAfter(fault.Unlimited)
			pages := store.NumPages()

			if got := tr.Count(); got != count {
				t.Errorf("Count = %d after the failed Put, want %d", got, count)
			}
			if got := tr.ValueBytes(); got != vbytes {
				t.Errorf("ValueBytes = %d after the failed Put, want %d", got, vbytes)
			}
			if err := tr.Check(); err != nil {
				t.Errorf("Check after the failed Put: %v", err)
			}
			got, err := tr.Get([]byte(tc.key))
			if old == nil {
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("Get of the key never stored = %d bytes, %v; want ErrNotFound", len(got), err)
				}
			} else if err != nil || !bytes.Equal(got, old) {
				t.Errorf("Get of the replaced key = %d bytes, %v; want its old %d bytes", len(got), err, len(old))
			}
			if got, err := tr.Get([]byte("big")); err != nil || !bytes.Equal(got, bigVal) {
				t.Errorf("Get(big) = %d bytes, %v; want its %d bytes", len(got), err, len(bigVal))
			}
			// The pages the failed Put allocated are free again: the next
			// allocation reuses one (the new value's overflow page) or, with
			// none written, extends the file.
			id, fr, err := store.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			fr.Unpin()
			if reused := uint32(id) < pages; reused != (tc.writesBefore > 0) {
				t.Errorf("allocation after the failed Put got page %d of %d: reused=%v", id, pages, reused)
			}

			// The tree takes the same Put once the device is back.
			if err := tr.Put([]byte(tc.key), tc.val); err != nil {
				t.Fatal(err)
			}
			if got, err := tr.Get([]byte(tc.key)); err != nil || !bytes.Equal(got, tc.val) {
				t.Fatalf("Get after the retried Put = %d bytes, %v", len(got), err)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("Check after the retried Put: %v", err)
			}
		})
	}
}

// rootFree reads the root page and reports its free bytes.
func rootFree(t *testing.T, tr *Tree) int {
	t.Helper()
	fr, err := tr.store.Get(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Unpin()
	return node{fr.Data()}.freeTotal()
}
