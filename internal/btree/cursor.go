package btree

import (
	"bytes"
	"encoding/binary"

	"odh/internal/pagestore"
)

// Cursor iterates leaf entries in ascending key order. A cursor takes a
// read snapshot of each leaf it visits — one copy of the page into a
// buffer the cursor owns, which keeps pin lifetimes short and makes
// iteration safe while other goroutines read — and holds the tree read
// lock only per leaf. Writers to other keys may run while a cursor is
// open: it never sees a torn page, stays strictly ascending through leaf
// splits, and visits every entry that exists for its whole lifetime
// exactly once. An entry written or deleted during the walk may be seen
// in either state, and a deleted value's overflow chain may be gone when
// Value follows it — so whoever opens a cursor must exclude the writers
// of the key range it reads for the cursor's lifetime. For the
// historian's batch trees that coordinator is tsstore's per-owner shard
// latch: the record walker (tsstore/walk.go) opens and drops its cursors
// inside one shared hold, and rewriteLocked, the only writer, runs under
// the exclusive hold.
//
// A Reset whose target lies within the snapshot's keys, on a tree no Put or
// Delete has changed since the copy, is answered from the snapshot: no
// descent, no copy. The snapshot is then byte for byte the leaf, and its
// overflow references name the chains the leaf does — a chain changes only
// by a mutation of its key.
//
// View lifetime: Key, and Value of a value stored inline, return views of
// the snapshot. They are valid until the cursor moves (Next, Reset) and
// must not be modified; a caller that keeps an entry past that copies it
// (AppendValue, or append([]byte(nil), ...)). Value of an overflow value
// is a fresh allocation the caller owns. The zero Cursor is invalid until
// Reset.
type Cursor struct {
	t    *Tree
	leaf pagestore.PageID
	page []byte // the snapshot: a private copy of the leaf page
	n    int    // cells in the snapshot
	pos  int
	err  error
	// floor and last bound what a newly loaded leaf may yield: keys >= floor
	// (the seek target, which the cursor retains) and > last (the final key
	// of the previous leaf snapshot, copied out of it; empty = none). A leaf
	// that splits after it was snapshotted moves its upper half to a new
	// right sibling, which the walk then reaches again; the bounds keep the
	// cursor strictly ascending through that.
	floor, last []byte
	ver         uint64  // the tree's version when the snapshot was copied
	chain       chainAt // how far AppendValuePart has read the current value
}

// Seek positions a new cursor at the first entry with key >= target.
func (t *Tree) Seek(target []byte) *Cursor {
	c := new(Cursor)
	c.Reset(t, target)
	return c
}

// First positions the cursor at the smallest entry.
func (t *Tree) First() *Cursor {
	return t.Seek(nil)
}

// Reset re-aims the cursor at the first entry of t with key >= target,
// reusing the buffers of its earlier life — and its leaf snapshot, when
// the tree is unchanged and the snapshot holds keys on both sides of
// target (see Cursor). target must stay unmodified while the cursor is in
// use.
func (c *Cursor) Reset(t *Tree, target []byte) {
	reuse := c.t == t && c.n > 0 && c.ver == t.version.Load()
	c.t, c.floor, c.last, c.chain, c.err = t, target, c.last[:0], chainAt{}, nil
	if n := (node{c.page}); reuse && bytes.Compare(n.cellKey(0), target) <= 0 && bytes.Compare(target, n.cellKey(c.n-1)) <= 0 {
		c.pos, _ = n.search(target)
		return
	}
	c.n, c.pos = 0, 0
	// One lock hold from the descent to the leaf copy: a split in between
	// would leave the copy without the keys the descent aimed at.
	t.mu.RLock()
	leafID, err := t.findLeaf(target)
	if err == nil {
		err = c.loadLeaf(leafID)
	}
	t.mu.RUnlock()
	// The first key >= target may be on the next leaf.
	if c.err = err; err == nil && c.pos >= c.n {
		c.advanceLeaf()
	}
}

// loadLeaf snapshots leaf pid and lands on its first cell inside the
// cursor's bounds. Caller holds t.mu.
func (c *Cursor) loadLeaf(pid pagestore.PageID) error {
	fr, err := c.t.store.Get(pid)
	if err != nil {
		return err
	}
	if c.page == nil {
		c.page = make([]byte, pagestore.PageSize)
	}
	copy(c.page, fr.Data())
	fr.Unpin()
	n := node{c.page}
	c.leaf, c.n, c.ver = pid, n.ncells(), c.t.version.Load()
	c.pos, _ = n.search(c.floor)
	if len(c.last) > 0 {
		i, found := n.search(c.last)
		if found {
			i++
		}
		c.pos = max(c.pos, i)
	}
	return nil
}

// advanceLeaf moves to the next leaf with an entry in bounds (skipping
// empty leaves left by deletions); the cursor becomes invalid at the end
// of the tree.
func (c *Cursor) advanceLeaf() {
	for {
		if c.n > 0 {
			if key := (node{c.page}).cellKey(c.n - 1); bytes.Compare(key, c.last) > 0 {
				c.last = append(c.last[:0], key...)
			}
		}
		// The sibling pointer is read fresh, with the sibling's copy, under
		// one lock hold: the chain is then the current one, splits included.
		c.t.mu.RLock()
		fr, err := c.t.store.Get(c.leaf)
		next := pagestore.InvalidPage
		if err == nil {
			next = node{fr.Data()}.next()
			fr.Unpin()
			if next != pagestore.InvalidPage {
				err = c.loadLeaf(next)
			}
		}
		c.t.mu.RUnlock()
		if err != nil || next == pagestore.InvalidPage {
			c.err = err
			c.n, c.pos = 0, 0
			return
		}
		if c.pos < c.n {
			return
		}
	}
}

// Valid reports whether the cursor is positioned at an entry.
func (c *Cursor) Valid() bool { return c.err == nil && c.pos < c.n }

// Err returns the first error the cursor encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Key returns a view of the current entry's key. Valid only while Valid()
// is true and until the cursor moves.
func (c *Cursor) Key() []byte { return node{c.page}.cellKey(c.pos) }

// Value returns the current entry's value: a view (see Cursor) when it is
// stored inline, the reassembled overflow chain otherwise.
func (c *Cursor) Value() ([]byte, error) {
	_, val, ovf := node{c.page}.leafCell(c.pos)
	if !ovf {
		return val, nil
	}
	return c.appendValue(nil, new(chainAt), -1)
}

// AppendValue appends the current entry's value to dst: the copying read,
// into a buffer the caller owns and may reuse.
func (c *Cursor) AppendValue(dst []byte) ([]byte, error) {
	return c.appendValue(dst, new(chainAt), -1)
}

// AppendValuePart appends the next part of the current entry's value to
// dst: its bytes from where the last part of this entry ended (its start,
// once the cursor has moved) through byte end (end < 0 or past the value:
// its end). An overflow chain is followed on from the page the last part
// ended in, so a value read in parts reads each page once, the page a part
// ends inside once more; a read through ChainChunk reads one page. A
// caller after the front of a multi-page value (a ValueBlob's header and
// the columns it wants) does not pay for the rest, and allocates only to
// grow dst.
func (c *Cursor) AppendValuePart(dst []byte, end int) ([]byte, error) {
	return c.appendValue(dst, &c.chain, end)
}

func (c *Cursor) appendValue(dst []byte, at *chainAt, end int) ([]byte, error) {
	_, val, ovf := node{c.page}.leafCell(c.pos)
	if !ovf {
		if end < 0 || end > len(val) {
			end = len(val)
		}
		if at.read < end {
			dst = append(dst, val[at.read:end]...)
			at.read = end
		}
		return dst, nil
	}
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	return c.t.appendOverflow(dst, val, at, end)
}

// ValueSize returns the stored size of the current value without fetching
// overflow pages; the query planner uses it to account blob bytes.
func (c *Cursor) ValueSize() int {
	_, val, ovf := node{c.page}.leafCell(c.pos)
	if !ovf {
		return len(val)
	}
	if len(val) < 8 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(val))
}

// Next advances to the following entry.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.pos++
	c.chain = chainAt{}
	if c.pos >= c.n {
		c.advanceLeaf()
	}
}

// Scan invokes fn for every entry with lo <= key < hi (hi nil = unbounded).
// Iteration stops early when fn returns false. key and val are only valid
// during the call (see Cursor).
func (t *Tree) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	c := t.Seek(lo)
	for c.Valid() {
		if hi != nil && bytes.Compare(c.Key(), hi) >= 0 {
			break
		}
		val, err := c.Value()
		if err != nil {
			return err
		}
		if !fn(c.Key(), val) {
			break
		}
		c.Next()
	}
	return c.Err()
}

// CountRange returns the number of entries and total value bytes in
// [lo, hi). The planner uses it for cost estimation on small ranges.
func (t *Tree) CountRange(lo, hi []byte) (n int, bytesTotal int64, err error) {
	c := t.Seek(lo)
	for c.Valid() {
		if hi != nil && bytes.Compare(c.Key(), hi) >= 0 {
			break
		}
		n++
		bytesTotal += int64(c.ValueSize())
		c.Next()
	}
	return n, bytesTotal, c.Err()
}
