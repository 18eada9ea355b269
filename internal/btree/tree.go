package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"odh/internal/pagestore"
)

// Tree descriptor page layout (anchored by a pagestore named root):
//
//	[0:4]  root node page
//	[4:12] entry count
//	[12:14] height (1 = root is a leaf)
//	[14:22] total value bytes stored (inline + overflow payload)
type Tree struct {
	mu    sync.RWMutex
	store *pagestore.Store
	name  string
	desc  pagestore.PageID // descriptor page

	root      pagestore.PageID
	count     uint64
	height    uint16
	valueByte uint64

	// stale is the overflow reference of the value a Put replaced, which Put
	// frees once the tree is whole and no page names it.
	stale []byte

	// version counts the mutations begun: Put and Delete bump it under mu
	// before they touch a page, so a cursor's leaf snapshot taken at the
	// same version is still byte for byte the leaf (Cursor.Reset).
	version atomic.Uint64
}

// splitResult carries a completed child split up the insert recursion.
type splitResult struct {
	sep   []byte
	right pagestore.PageID
}

// Open opens (creating if necessary) the B+tree named name inside store.
func Open(store *pagestore.Store, name string) (*Tree, error) {
	t := &Tree{store: store, name: name}
	desc, err := store.Root("btree:" + name)
	if err == nil {
		t.desc = desc
		fr, err := store.Get(desc)
		if err != nil {
			return nil, err
		}
		d := fr.Data()
		t.root = pagestore.PageID(binary.LittleEndian.Uint32(d))
		t.count = binary.LittleEndian.Uint64(d[4:])
		t.height = binary.LittleEndian.Uint16(d[12:])
		t.valueByte = binary.LittleEndian.Uint64(d[14:])
		fr.Unpin()
		return t, nil
	}
	if err := t.create(); err != nil {
		return nil, err
	}
	if err := store.SetRoot("btree:"+name, t.desc); err != nil {
		return nil, err
	}
	return t, nil
}

// create writes the descriptor and an empty leaf root.
func (t *Tree) create() error {
	t.store.BeginWrite()
	defer t.store.EndWrite()
	descID, descFr, err := t.store.Allocate()
	if err != nil {
		return err
	}
	defer descFr.Unpin()
	rootID, rootFr, err := t.store.Allocate()
	if err != nil {
		return err
	}
	initNode(rootFr.Data(), typeLeaf)
	rootFr.MarkDirty()
	rootFr.Unpin()
	t.desc, t.root, t.height = descID, rootID, 1
	binary.LittleEndian.PutUint32(descFr.Data(), uint32(rootID))
	binary.LittleEndian.PutUint16(descFr.Data()[12:], 1)
	descFr.MarkDirty()
	return nil
}

// saveDesc persists the descriptor page. Caller holds t.mu for writing.
func (t *Tree) saveDesc() error {
	fr, err := t.store.Get(t.desc)
	if err != nil {
		return err
	}
	d := fr.Data()
	binary.LittleEndian.PutUint32(d, uint32(t.root))
	binary.LittleEndian.PutUint64(d[4:], t.count)
	binary.LittleEndian.PutUint16(d[12:], t.height)
	binary.LittleEndian.PutUint64(d[14:], t.valueByte)
	fr.MarkDirty()
	fr.Unpin()
	return nil
}

// Name returns the tree's name.
func (t *Tree) Name() string { return t.name }

// Count returns the number of entries.
func (t *Tree) Count() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.height)
}

// ValueBytes returns the total payload bytes stored, the quantity the
// paper's cost model estimates (expected ValueBlob bytes touched).
func (t *Tree) ValueBytes() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.valueByte
}

// Put inserts or replaces the value for key.
func (t *Tree) Put(key, val []byte) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLong
	}
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version.Add(1)
	// Every page write of a tree mutation happens inside one section of the
	// store's writer gate, so a flush sees the mutation whole or not at all.
	t.store.BeginWrite()
	defer t.store.EndWrite()
	split, err := t.insert(t.root, key, val)
	stale := t.stale
	t.stale = nil
	if err != nil {
		return err
	}
	if split != nil {
		// Grow a new root above the old one.
		newRootID, fr, err := t.store.Allocate()
		if err != nil {
			return err
		}
		n := initNode(fr.Data(), typeInternal)
		if err := n.insertCellAt(0, makeInternalCell(split.sep, t.root)); err != nil {
			fr.Unpin()
			return err
		}
		n.setNext(split.right)
		fr.MarkDirty()
		fr.Unpin()
		t.root = newRootID
		t.height++
	}
	if err := t.saveDesc(); err != nil {
		return err
	}
	if stale != nil {
		return t.freeOverflow(stale)
	}
	return nil
}

// insert descends from page pid; returns a non-nil splitResult when pid was
// split and the parent must add a separator.
func (t *Tree) insert(pid pagestore.PageID, key, val []byte) (*splitResult, error) {
	fr, err := t.store.Get(pid)
	if err != nil {
		return nil, err
	}
	n := node{fr.Data()}
	if n.isLeaf() {
		res, err := t.insertLeaf(fr, n, key, val)
		fr.Unpin()
		return res, err
	}
	// Internal: pick the child to descend into.
	idx := n.descend(key)
	var childID pagestore.PageID
	if idx < n.ncells() {
		childID = n.child(idx)
	} else {
		childID = n.next()
	}
	// Drop the pin during recursion; the single-writer lock makes this safe
	// and keeps pin pressure bounded by one frame per level at most.
	fr.Unpin()
	split, err := t.insert(childID, key, val)
	if err != nil || split == nil {
		return nil, err
	}
	fr, err = t.store.Get(pid)
	if err != nil {
		return nil, err
	}
	defer fr.Unpin()
	n = node{fr.Data()}
	res, err := t.insertSeparator(fr, n, idx, split)
	return res, err
}

// insertSeparator adds (split.sep -> old child stays left, split.right goes
// right) into internal node n at the descent position idx, splitting n
// itself if needed.
func (t *Tree) insertSeparator(fr *pagestore.Frame, n node, idx int, split *splitResult) (*splitResult, error) {
	// The child that split is at position idx (or the rightmost pointer).
	// Cell (sep, leftChild) goes at idx; the pointer that followed moves right.
	var leftChild pagestore.PageID
	if idx < n.ncells() {
		leftChild = n.child(idx)
		n.setChild(idx, split.right)
	} else {
		leftChild = n.next()
		n.setNext(split.right)
	}
	cell := makeInternalCell(split.sep, leftChild)
	if n.freeTotal() >= len(cell)+slotSize {
		if err := n.insertCellAt(idx, cell); err != nil {
			return nil, err
		}
		fr.MarkDirty()
		return nil, nil
	}
	// Split this internal node, then insert the cell into the proper half.
	res, err := t.splitInternal(fr, n, idx, cell)
	return res, err
}

// splitInternal splits internal node n, inserting pending cell at logical
// index idx as part of the split. Returns the separator for the parent.
func (t *Tree) splitInternal(fr *pagestore.Frame, n node, idx int, pending []byte) (*splitResult, error) {
	nc := n.ncells()
	// Gather all cells (with the pending one spliced in) as raw bytes.
	cells := make([][]byte, 0, nc+1)
	for i := 0; i < nc; i++ {
		off := n.slotOffset(i)
		size := n.cellSize(i)
		body := make([]byte, size)
		copy(body, n.data[off:off+size])
		cells = append(cells, body)
	}
	cells = append(cells[:idx], append([][]byte{pending}, cells[idx:]...)...)
	rightmost := n.next()

	mid := len(cells) / 2
	// The middle cell's key is promoted; its child becomes the left node's
	// rightmost pointer.
	midKeyLen := int(binary.LittleEndian.Uint16(cells[mid]))
	sep := make([]byte, midKeyLen)
	copy(sep, cells[mid][6:6+midKeyLen])
	midChild := pagestore.PageID(binary.LittleEndian.Uint32(cells[mid][2:]))

	rightID, rightFr, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	defer rightFr.Unpin()
	rn := initNode(rightFr.Data(), typeInternal)
	for i, c := range cells[mid+1:] {
		if err := rn.insertCellAt(i, c); err != nil {
			return nil, err
		}
	}
	rn.setNext(rightmost)
	rightFr.MarkDirty()

	// Rebuild the left node in place.
	ln := initNode(n.data, typeInternal)
	for i, c := range cells[:mid] {
		if err := ln.insertCellAt(i, c); err != nil {
			return nil, err
		}
	}
	ln.setNext(midChild)
	fr.MarkDirty()
	return &splitResult{sep: sep, right: rightID}, nil
}

// insertLeaf performs the leaf-level upsert, splitting when full. The tree
// changes only once the leaf can take the cell: a split that fails leaves
// the leaf, the counts and a replaced value's overflow chain as they were,
// and frees the chain written for the new value. A replaced value's chain
// is left in t.stale for Put to free.
func (t *Tree) insertLeaf(fr *pagestore.Frame, n node, key, val []byte) (*splitResult, error) {
	inline := val
	ovf := false
	if len(val) > maxInlineValue {
		ref, err := t.writeOverflow(val)
		if err != nil {
			return nil, err
		}
		inline, ovf = ref, true
	}
	cell := makeLeafCell(key, inline, ovf)

	idx, found := n.search(key)
	var oldRef []byte // the replaced value's overflow reference, copied out
	oldBytes, oldSize, free := uint64(0), 0, n.freeTotal()
	if found {
		_, oldVal, oldOvf := n.leafCell(idx)
		if oldOvf {
			oldRef = slices.Clone(oldVal)
			oldBytes = uint64(binary.LittleEndian.Uint32(oldVal))
		} else {
			oldBytes = uint64(len(oldVal))
		}
		oldSize = n.cellSize(idx)
		free += oldSize + slotSize // what removing the replaced cell frees
	}
	var split *splitResult
	switch {
	case found && len(cell) <= oldSize:
		// Fast path: overwrite in place when the new cell fits the old
		// cell's footprint (replace-heavy workloads would otherwise pay a
		// page compaction per update).
		copy(n.data[n.slotOffset(idx):], cell)
		n.setFragBytes(n.fragBytes() + oldSize - len(cell))
	case free >= len(cell)+slotSize:
		if found {
			n.removeCellAt(idx)
		}
		if err := n.insertCellAt(idx, cell); err != nil {
			return nil, err
		}
	default:
		var err error
		if split, err = t.splitLeaf(fr, n, idx, found, cell); err != nil {
			if ovf {
				err = errors.Join(err, t.freeOverflow(inline))
			}
			return nil, err
		}
	}
	fr.MarkDirty()
	if !found {
		t.count++
	}
	t.valueByte += uint64(len(val)) - oldBytes
	t.stale = oldRef
	return split, nil
}

// splitLeaf splits leaf n, inserting pending cell at logical index idx, or
// replacing the cell there when replace is set. It changes n only after the
// right page is allocated.
func (t *Tree) splitLeaf(fr *pagestore.Frame, n node, idx int, replace bool, pending []byte) (*splitResult, error) {
	nc := n.ncells()
	cells := make([][]byte, 0, nc+1)
	for i := 0; i < nc; i++ {
		off := n.slotOffset(i)
		size := n.cellSize(i)
		body := make([]byte, size)
		copy(body, n.data[off:off+size])
		cells = append(cells, body)
	}
	if replace {
		cells[idx] = pending
	} else {
		cells = append(cells[:idx], append([][]byte{pending}, cells[idx:]...)...)
	}

	// Split by cumulative bytes so unevenly sized cells balance.
	total := 0
	for _, c := range cells {
		total += len(c) + slotSize
	}
	mid, acc := 0, 0
	for mid = 0; mid < len(cells)-1; mid++ {
		acc += len(cells[mid]) + slotSize
		if acc >= total/2 {
			mid++
			break
		}
	}
	if mid == 0 {
		mid = 1
	}

	rightID, rightFr, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	defer rightFr.Unpin()
	rn := initNode(rightFr.Data(), typeLeaf)
	for i, c := range cells[mid:] {
		if err := rn.insertCellAt(i, c); err != nil {
			return nil, err
		}
	}
	rn.setNext(n.next())
	rightFr.MarkDirty()

	ln := initNode(n.data, typeLeaf)
	for i, c := range cells[:mid] {
		if err := ln.insertCellAt(i, c); err != nil {
			return nil, err
		}
	}
	ln.setNext(rightID)
	fr.MarkDirty()

	sepLen := int(binary.LittleEndian.Uint16(cells[mid]))
	sep := make([]byte, sepLen)
	copy(sep, cells[mid][4:4+sepLen])
	return &splitResult{sep: sep, right: rightID}, nil
}

// Get returns the value stored for key, or ErrNotFound.
func (t *Tree) Get(key []byte) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leafID, err := t.findLeaf(key)
	if err != nil {
		return nil, err
	}
	fr, err := t.store.Get(leafID)
	if err != nil {
		return nil, err
	}
	defer fr.Unpin()
	n := node{fr.Data()}
	idx, found := n.search(key)
	if !found {
		return nil, ErrNotFound
	}
	_, val, ovf := n.leafCell(idx)
	if ovf {
		return t.appendOverflow(nil, val, new(chainAt), -1)
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out, nil
}

// Delete removes key. Empty leaves are left in place (the historian
// workload is append-dominated; space is reclaimed when overflow chains are
// freed and on page reuse).
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version.Add(1)
	t.store.BeginWrite()
	defer t.store.EndWrite()
	leafID, err := t.findLeaf(key)
	if err != nil {
		return err
	}
	fr, err := t.store.Get(leafID)
	if err != nil {
		return err
	}
	defer fr.Unpin()
	n := node{fr.Data()}
	idx, found := n.search(key)
	if !found {
		return ErrNotFound
	}
	_, val, ovf := n.leafCell(idx)
	if ovf {
		if err := t.freeOverflow(val); err != nil {
			return err
		}
		t.valueByte -= uint64(binary.LittleEndian.Uint32(val))
	} else {
		t.valueByte -= uint64(len(val))
	}
	n.removeCellAt(idx)
	fr.MarkDirty()
	t.count--
	return t.saveDesc()
}

// findLeaf descends to the leaf that would contain key. Caller holds t.mu.
func (t *Tree) findLeaf(key []byte) (pagestore.PageID, error) {
	pid := t.root
	for {
		fr, err := t.store.Get(pid)
		if err != nil {
			return pagestore.InvalidPage, err
		}
		n := node{fr.Data()}
		if n.isLeaf() {
			fr.Unpin()
			return pid, nil
		}
		idx := n.descend(key)
		if idx < n.ncells() {
			pid = n.child(idx)
		} else {
			pid = n.next()
		}
		fr.Unpin()
	}
}

// MaxKey returns a copy of the largest key in the tree, or nil when the
// tree is empty. It walks the rightmost path; when deletions emptied the
// rightmost leaf it falls back to a full scan.
func (t *Tree) MaxKey() ([]byte, error) {
	t.mu.RLock()
	pid := t.root
	for {
		fr, err := t.store.Get(pid)
		if err != nil {
			t.mu.RUnlock()
			return nil, err
		}
		n := node{fr.Data()}
		if !n.isLeaf() {
			next := n.next()
			fr.Unpin()
			pid = next
			continue
		}
		if nc := n.ncells(); nc > 0 {
			key := append([]byte(nil), n.cellKey(nc-1)...)
			fr.Unpin()
			t.mu.RUnlock()
			return key, nil
		}
		fr.Unpin()
		break
	}
	t.mu.RUnlock()
	// Fallback: the rightmost leaf was emptied by deletions.
	var last []byte
	err := t.Scan(nil, nil, func(k, _ []byte) bool {
		last = append(last[:0], k...)
		return true
	})
	if err != nil || last == nil {
		return nil, err
	}
	return last, nil
}

// writeOverflow stores val in a chain of overflow pages and returns the
// 8-byte reference (totalLen u32, firstPage u32).
func (t *Tree) writeOverflow(val []byte) ([]byte, error) {
	var first, prev pagestore.PageID
	var prevFr *pagestore.Frame
	for off := 0; off < len(val); off += ovfChunkSize {
		end := off + ovfChunkSize
		if end > len(val) {
			end = len(val)
		}
		id, fr, err := t.store.Allocate()
		if err != nil {
			if prevFr != nil {
				prevFr.Unpin()
			}
			return nil, err
		}
		d := fr.Data()
		binary.LittleEndian.PutUint32(d, uint32(pagestore.InvalidPage))
		binary.LittleEndian.PutUint16(d[4:], uint16(end-off))
		copy(d[ovfHeaderSize:], val[off:end])
		fr.MarkDirty()
		if first == pagestore.InvalidPage {
			first = id
		}
		if prevFr != nil {
			binary.LittleEndian.PutUint32(prevFr.Data(), uint32(id))
			prevFr.MarkDirty()
			prevFr.Unpin()
		}
		prev, prevFr = id, fr
	}
	_ = prev
	if prevFr != nil {
		prevFr.Unpin()
	}
	ref := make([]byte, 8)
	binary.LittleEndian.PutUint32(ref, uint32(len(val)))
	binary.LittleEndian.PutUint32(ref[4:], uint32(first))
	return ref, nil
}

// chainAt is where a read of one value stopped: bytes of it read so far
// and, of an overflow value, the chain page holding the next byte with the
// bytes and pages in front of that page. The zero chainAt is the start.
type chainAt struct {
	read      int
	pid, prev pagestore.PageID // prev: the page that named pid
	off       int              // bytes of the value in pages before pid
	pages     int              // pages before pid
}

// appendOverflow appends bytes [at.read, end) of the value behind ref to
// dst (end < 0 or past the value: its end) and advances at, following the
// chain from the page at names — so a value read in steps reads each page
// once, and the page a step stops inside once more. It trusts nothing it
// reads: the claimed length must fit in the pages the store has, no page
// may claim a chunk larger than a page holds or one reaching past the
// length, nor name itself or the chain's first page as the next, and the
// chain may neither end short of the length nor run past it (a longer
// cycle does); a read that stops short of the end checks what it read.
// Caller holds t.mu.
func (t *Tree) appendOverflow(dst, ref []byte, at *chainAt, end int) ([]byte, error) {
	if len(ref) < 8 {
		return nil, errCorrupt
	}
	total := int(binary.LittleEndian.Uint32(ref))
	pages := (total + ovfChunkSize - 1) / ovfChunkSize
	if pages >= int(t.store.NumPages()) {
		return nil, fmt.Errorf("%w: overflow value of %d bytes in a store of %d pages", errCorrupt, total, t.store.NumPages())
	}
	first := pagestore.PageID(binary.LittleEndian.Uint32(ref[4:]))
	if at.pages == 0 && at.read == 0 {
		at.pid = first
	}
	if end < 0 || end > total {
		end = total
	}
	if at.read < end {
		dst = slices.Grow(dst, end-at.read)
	}
	for at.read < end {
		if at.pages >= pages || at.pid == pagestore.InvalidPage {
			return nil, fmt.Errorf("%w: overflow chain does not end with its %d-byte value (read %d)", errCorrupt, total, at.read)
		}
		if at.pages > 0 && (at.pid == at.prev || at.pid == first) {
			return nil, fmt.Errorf("%w: overflow page %d loops back to page %d", errCorrupt, at.prev, at.pid)
		}
		fr, err := t.store.Get(at.pid)
		if err != nil {
			return nil, err
		}
		d := fr.Data()
		chunk := int(binary.LittleEndian.Uint16(d[4:]))
		if chunk > ovfChunkSize || at.off+chunk > total || at.off+chunk < at.read {
			fr.Unpin()
			return nil, fmt.Errorf("%w: overflow page %d holds %d bytes of a %d-byte value", errCorrupt, at.pid, chunk, total)
		}
		stop := min(end, at.off+chunk)
		dst = append(dst, d[ovfHeaderSize+at.read-at.off:ovfHeaderSize+stop-at.off]...)
		if at.read = stop; stop == at.off+chunk {
			at.prev, at.pid, at.off = at.pid, pagestore.PageID(binary.LittleEndian.Uint32(d)), stop
			at.pages++
		}
		fr.Unpin()
	}
	if at.read == total && at.pid != pagestore.InvalidPage {
		return nil, fmt.Errorf("%w: overflow chain runs past its %d-byte value", errCorrupt, total)
	}
	return dst, nil
}

// freeOverflow releases the chain referenced by ref.
func (t *Tree) freeOverflow(ref []byte) error {
	if len(ref) < 8 {
		return errCorrupt
	}
	pid := pagestore.PageID(binary.LittleEndian.Uint32(ref[4:]))
	for pid != pagestore.InvalidPage {
		fr, err := t.store.Get(pid)
		if err != nil {
			return err
		}
		next := pagestore.PageID(binary.LittleEndian.Uint32(fr.Data()))
		fr.Unpin()
		if err := t.store.Free(pid); err != nil {
			return err
		}
		pid = next
	}
	return nil
}
