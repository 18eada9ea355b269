package btree

import (
	"bytes"

	"odh/internal/pagestore"
)

// Cursor iterates leaf entries in ascending key order. A cursor takes a
// read snapshot of each leaf it visits (the copy keeps pin lifetimes short
// and makes iteration safe while other goroutines read) and holds the tree
// read lock only per leaf. Writers to other keys may run while a cursor is
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
type Cursor struct {
	t     *Tree
	leaf  pagestore.PageID
	cells []cursorCell
	pos   int
	err   error
	// floor and last bound what a newly loaded leaf may yield: keys >= floor
	// (the seek target) and > last (the final key of the previous leaf
	// snapshot). A leaf that splits after it was snapshotted moves its
	// upper half to a new right sibling, which the walk then reaches again;
	// the bounds keep the cursor strictly ascending through that.
	floor, last []byte
}

type cursorCell struct {
	key []byte
	val []byte
	ovf bool
}

// Seek positions the cursor at the first entry with key >= target.
func (t *Tree) Seek(target []byte) *Cursor {
	c := &Cursor{t: t, floor: target}
	// One lock hold from the descent to the leaf copy: a split in between
	// would leave the copy without the keys the descent aimed at.
	t.mu.RLock()
	leafID, err := t.findLeaf(target)
	if err == nil {
		err = c.loadLeaf(leafID)
	}
	t.mu.RUnlock()
	if err != nil {
		c.err = err
		return c
	}
	// The first key >= target may be on the next leaf.
	if c.skipBelow(); c.pos >= len(c.cells) {
		c.advanceLeaf()
	}
	return c
}

// First positions the cursor at the smallest entry.
func (t *Tree) First() *Cursor {
	return t.Seek(nil)
}

// loadLeaf snapshots the cells of leaf pid. Caller holds t.mu.
func (c *Cursor) loadLeaf(pid pagestore.PageID) error {
	fr, err := c.t.store.Get(pid)
	if err != nil {
		return err
	}
	defer fr.Unpin()
	n := node{fr.Data()}
	c.leaf = pid
	c.cells = c.cells[:0]
	for i := 0; i < n.ncells(); i++ {
		key, val, ovf := n.leafCell(i)
		c.cells = append(c.cells, cursorCell{
			key: append([]byte(nil), key...),
			val: append([]byte(nil), val...),
			ovf: ovf,
		})
	}
	c.pos = 0
	return nil
}

// skipBelow moves past the cells of a fresh snapshot that the cursor's
// bounds exclude.
func (c *Cursor) skipBelow() {
	for c.pos < len(c.cells) {
		key := c.cells[c.pos].key
		if bytes.Compare(key, c.floor) >= 0 && (c.last == nil || bytes.Compare(key, c.last) > 0) {
			return
		}
		c.pos++
	}
}

// advanceLeaf moves to the next leaf with an entry in bounds (skipping
// empty leaves left by deletions); the cursor becomes invalid at the end
// of the tree.
func (c *Cursor) advanceLeaf() {
	for {
		if n := len(c.cells); n > 0 && (c.last == nil || bytes.Compare(c.cells[n-1].key, c.last) > 0) {
			c.last = c.cells[n-1].key
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
			c.cells = nil
			c.pos = 0
			return
		}
		if c.skipBelow(); c.pos < len(c.cells) {
			return
		}
	}
}

// Valid reports whether the cursor is positioned at an entry.
func (c *Cursor) Valid() bool { return c.err == nil && c.pos < len(c.cells) }

// Err returns the first error the cursor encountered, if any.
func (c *Cursor) Err() error { return c.err }

// Key returns the current entry's key. Valid only while Valid() is true.
func (c *Cursor) Key() []byte { return c.cells[c.pos].key }

// Value returns the current entry's value, fetching overflow chains as
// needed.
func (c *Cursor) Value() ([]byte, error) {
	cell := c.cells[c.pos]
	if !cell.ovf {
		return cell.val, nil
	}
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	return c.t.readOverflow(cell.val)
}

// ValueSize returns the stored size of the current value without fetching
// overflow pages; the query planner uses it to account blob bytes.
func (c *Cursor) ValueSize() int {
	cell := c.cells[c.pos]
	if !cell.ovf {
		return len(cell.val)
	}
	if len(cell.val) < 8 {
		return 0
	}
	return int(uint32(cell.val[0]) | uint32(cell.val[1])<<8 | uint32(cell.val[2])<<16 | uint32(cell.val[3])<<24)
}

// Next advances to the following entry.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.pos++
	if c.pos >= len(c.cells) {
		c.advanceLeaf()
	}
}

// Scan invokes fn for every entry with lo <= key < hi (hi nil = unbounded).
// Iteration stops early when fn returns false.
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
