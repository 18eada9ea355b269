package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"odh/internal/keyenc"
	"odh/internal/pagestore"
)

func newTree(t testing.TB, name string) *Tree {
	t.Helper()
	store, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(store, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return tr
}

func TestPutGetSmall(t *testing.T) {
	tr := newTree(t, "small")
	if err := tr.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get([]byte("k1"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := tr.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if tr.Count() != 1 {
		t.Fatalf("Count = %d, want 1", tr.Count())
	}
}

func TestPutReplace(t *testing.T) {
	tr := newTree(t, "replace")
	key := []byte("k")
	for i := 0; i < 10; i++ {
		if err := tr.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Get(key)
	if err != nil || string(got) != "v9" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if tr.Count() != 1 {
		t.Fatalf("Count = %d after replaces, want 1", tr.Count())
	}
}

func TestManyKeysOrdered(t *testing.T) {
	tr := newTree(t, "many")
	const n = 5000
	for i := 0; i < n; i++ {
		key := keyenc.AppendInt64(nil, int64(i))
		val := binary.LittleEndian.AppendUint32(nil, uint32(i*7))
		if err := tr.Put(key, val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if tr.Count() != n {
		t.Fatalf("Count = %d, want %d", tr.Count(), n)
	}
	if tr.Height() < 2 {
		t.Fatalf("tree never split: height %d", tr.Height())
	}
	for i := 0; i < n; i += 37 {
		key := keyenc.AppendInt64(nil, int64(i))
		val, err := tr.Get(key)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if binary.LittleEndian.Uint32(val) != uint32(i*7) {
			t.Fatalf("wrong value for %d", i)
		}
	}
}

func TestManyKeysRandomOrder(t *testing.T) {
	tr := newTree(t, "random")
	const n = 5000
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(n)
	for _, i := range perm {
		key := keyenc.AppendInt64(nil, int64(i))
		if err := tr.Put(key, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	// Full scan must be in key order and complete.
	var prev []byte
	count := 0
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order at %d", count)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

func TestRangeScanBounds(t *testing.T) {
	tr := newTree(t, "range")
	for i := 0; i < 100; i++ {
		tr.Put(keyenc.AppendInt64(nil, int64(i)), []byte{byte(i)})
	}
	lo := keyenc.AppendInt64(nil, 10)
	hi := keyenc.AppendInt64(nil, 20)
	var seen []int64
	if err := tr.Scan(lo, hi, func(k, v []byte) bool {
		id, _, _ := keyenc.Int64(k)
		seen = append(seen, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 || seen[0] != 10 || seen[9] != 19 {
		t.Fatalf("range [10,20) = %v", seen)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := newTree(t, "stop")
	for i := 0; i < 100; i++ {
		tr.Put(keyenc.AppendInt64(nil, int64(i)), []byte{1})
	}
	n := 0
	tr.Scan(nil, nil, func(k, v []byte) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestOverflowValues(t *testing.T) {
	tr := newTree(t, "ovf")
	big := make([]byte, 3*pagestore.PageSize+123)
	for i := range big {
		big[i] = byte(i % 251)
	}
	if err := tr.Put([]byte("blob"), big); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get([]byte("blob"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("overflow value corrupted")
	}
	if tr.ValueBytes() != uint64(len(big)) {
		t.Fatalf("ValueBytes = %d, want %d", tr.ValueBytes(), len(big))
	}
	// Replace with a small value: chain must be freed and reused.
	store := tr.store
	pagesBefore := store.NumPages()
	if err := tr.Put([]byte("blob"), []byte("small")); err != nil {
		t.Fatal(err)
	}
	got, err = tr.Get([]byte("blob"))
	if err != nil || string(got) != "small" {
		t.Fatalf("Get after replace: %q %v", got, err)
	}
	// Inserting another big value should reuse freed pages, not extend much.
	if err := tr.Put([]byte("blob2"), big); err != nil {
		t.Fatal(err)
	}
	if store.NumPages() > pagesBefore+1 {
		t.Fatalf("freed overflow pages not reused: %d -> %d", pagesBefore, store.NumPages())
	}
}

func TestOverflowValueViaCursor(t *testing.T) {
	tr := newTree(t, "ovfcur")
	big := make([]byte, 2*pagestore.PageSize)
	for i := range big {
		big[i] = byte(i)
	}
	tr.Put([]byte("a"), []byte("small"))
	tr.Put([]byte("b"), big)
	c := tr.Seek([]byte("b"))
	if !c.Valid() {
		t.Fatal("cursor invalid")
	}
	if c.ValueSize() != len(big) {
		t.Fatalf("ValueSize = %d, want %d", c.ValueSize(), len(big))
	}
	v, err := c.Value()
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("cursor overflow value wrong: %v", err)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, "del")
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(keyenc.AppendInt64(nil, int64(i)), []byte{byte(i)})
	}
	for i := 0; i < n; i += 2 {
		if err := tr.Delete(keyenc.AppendInt64(nil, int64(i))); err != nil {
			t.Fatalf("Delete %d: %v", i, err)
		}
	}
	if tr.Count() != n/2 {
		t.Fatalf("Count = %d, want %d", tr.Count(), n/2)
	}
	for i := 0; i < n; i++ {
		_, err := tr.Get(keyenc.AppendInt64(nil, int64(i)))
		if i%2 == 0 && err != ErrNotFound {
			t.Fatalf("deleted key %d still present (%v)", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving key %d lost: %v", i, err)
		}
	}
	if err := tr.Delete([]byte("never")); err != ErrNotFound {
		t.Fatalf("Delete missing = %v", err)
	}
}

func TestScanSkipsEmptiedLeaves(t *testing.T) {
	tr := newTree(t, "empty-leaves")
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(keyenc.AppendInt64(nil, int64(i)), bytes.Repeat([]byte{1}, 64))
	}
	// Empty out a middle stripe entirely.
	for i := 1000; i < 2000; i++ {
		tr.Delete(keyenc.AppendInt64(nil, int64(i)))
	}
	count := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 2000 {
		t.Fatalf("scan over emptied leaves visited %d, want 2000", count)
	}
	// Seek into the emptied stripe lands on the next live key.
	c := tr.Seek(keyenc.AppendInt64(nil, 1500))
	if !c.Valid() {
		t.Fatal("seek into gap invalid")
	}
	id, _, _ := keyenc.Int64(c.Key())
	if id != 2000 {
		t.Fatalf("seek into gap = %d, want 2000", id)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	f := pagestore.NewMemFile()
	store, err := pagestore.Open(f, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(store, "persist")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tr.Put(keyenc.AppendInt64(nil, int64(i)), binary.LittleEndian.AppendUint64(nil, uint64(i)))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := pagestore.Open(f, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	tr2, err := Open(store2, "persist")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 500 {
		t.Fatalf("Count after reopen = %d", tr2.Count())
	}
	for i := 0; i < 500; i += 11 {
		v, err := tr2.Get(keyenc.AppendInt64(nil, int64(i)))
		if err != nil || binary.LittleEndian.Uint64(v) != uint64(i) {
			t.Fatalf("Get %d after reopen: %v", i, err)
		}
	}
}

func TestMultipleTreesShareStore(t *testing.T) {
	store, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a, err := Open(store, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(store, "b")
	if err != nil {
		t.Fatal(err)
	}
	a.Put([]byte("k"), []byte("from-a"))
	b.Put([]byte("k"), []byte("from-b"))
	va, _ := a.Get([]byte("k"))
	vb, _ := b.Get([]byte("k"))
	if string(va) != "from-a" || string(vb) != "from-b" {
		t.Fatalf("trees interfered: %q %q", va, vb)
	}
}

func TestKeyTooLong(t *testing.T) {
	tr := newTree(t, "long")
	if err := tr.Put(make([]byte, MaxKeyLen+1), []byte("v")); err != ErrKeyTooLong {
		t.Fatalf("err = %v, want ErrKeyTooLong", err)
	}
	if err := tr.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := newTree(t, "varkeys")
	rng := rand.New(rand.NewSource(7))
	ref := map[string]string{}
	for i := 0; i < 2000; i++ {
		klen := 1 + rng.Intn(60)
		k := make([]byte, klen)
		rng.Read(k)
		v := fmt.Sprintf("val-%d", i)
		ref[string(k)] = v
		if err := tr.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != uint64(len(ref)) {
		t.Fatalf("Count = %d, want %d", tr.Count(), len(ref))
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		if string(k) != keys[i] || string(v) != ref[keys[i]] {
			t.Fatalf("mismatch at %d", i)
		}
		i++
		return true
	})
	if err != nil || i != len(keys) {
		t.Fatalf("scan: %v, visited %d/%d", err, i, len(keys))
	}
}

// TestQuickAgainstMap drives random Put/Delete/Get mixes against a Go map
// as the reference model.
func TestQuickAgainstMap(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	check := func(seed int64) bool {
		tr := newTree(t, fmt.Sprintf("quick-%d", seed))
		rng := rand.New(rand.NewSource(seed))
		ref := map[string][]byte{}
		for op := 0; op < 800; op++ {
			k := keyenc.AppendInt64(nil, int64(rng.Intn(200)))
			switch rng.Intn(3) {
			case 0, 1:
				v := make([]byte, rng.Intn(100))
				rng.Read(v)
				if err := tr.Put(k, v); err != nil {
					return false
				}
				ref[string(k)] = v
			case 2:
				err := tr.Delete(k)
				_, existed := ref[string(k)]
				if existed != (err == nil) {
					return false
				}
				delete(ref, string(k))
			}
		}
		if tr.Count() != uint64(len(ref)) {
			return false
		}
		for k, want := range ref {
			got, err := tr.Get([]byte(k))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCountRange(t *testing.T) {
	tr := newTree(t, "countrange")
	for i := 0; i < 100; i++ {
		tr.Put(keyenc.AppendInt64(nil, int64(i)), bytes.Repeat([]byte{7}, 10))
	}
	n, total, err := tr.CountRange(keyenc.AppendInt64(nil, 25), keyenc.AppendInt64(nil, 75))
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || total != 500 {
		t.Fatalf("CountRange = %d entries, %d bytes; want 50, 500", n, total)
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	tr := newTree(t, "rw")
	const writers = 2
	const readers = 4
	const perWriter = 3000
	done := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				key := keyenc.AppendInt64(nil, int64(w*perWriter+i))
				if err := tr.Put(key, []byte{byte(i)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for r := 0; r < readers; r++ {
		go func() {
			for round := 0; round < 40; round++ {
				// Scans must see an ordered, non-torn view.
				var prev []byte
				err := tr.Scan(nil, nil, func(k, v []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						return false
					}
					prev = append(prev[:0], k...)
					return true
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < writers+readers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != writers*perWriter {
		t.Fatalf("Count = %d, want %d", tr.Count(), writers*perWriter)
	}
}
