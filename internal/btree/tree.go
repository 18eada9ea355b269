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
	// put is what the Put under way holds, its memory reused by the next.
	put putPath

	// version counts the mutations begun: Put and Delete bump it under mu
	// before they touch a page, so a cursor's leaf snapshot taken at the
	// same version is still byte for byte the leaf (Cursor.Reset).
	version atomic.Uint64
}

// putPath is what a Put holds before it changes a page: the descriptor's
// frame and the frames from the root down to the leaf, pinned and kept by
// value (a frame handle kept by pointer would be allocated), the index the
// key descends by at each internal node, and the spare pages its splits
// take instead of allocating.
type putPath struct {
	frames []pagestore.Frame // the descriptor's, then the path's
	idx    []int
	spares []spare
}

type spare struct {
	id pagestore.PageID
	fr pagestore.Frame
}

// splitResult carries a completed child split up to its parent.
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
	t.writeDesc(fr)
	fr.Unpin()
	return nil
}

// writeDesc writes the descriptor into its pinned frame.
func (t *Tree) writeDesc(fr *pagestore.Frame) {
	d := fr.Data()
	binary.LittleEndian.PutUint32(d, uint32(t.root))
	binary.LittleEndian.PutUint64(d[4:], t.count)
	binary.LittleEndian.PutUint16(d[12:], t.height)
	binary.LittleEndian.PutUint64(d[14:], t.valueByte)
	fr.MarkDirty()
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

// Put inserts or replaces the value for key. Every page it touches or
// allocates is had before it changes the first one — a new value's
// overflow chain; the path from the root to the leaf and the descriptor,
// pinned; a spare page for each node the insert may split and for a new
// root — so a Put that fails for want of a page leaves the tree as it was.
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
	inline, ovf := val, false
	if len(val) > maxInlineValue {
		ref, err := t.writeOverflow(val)
		if err != nil {
			return err
		}
		inline, ovf = ref, true
	}
	cell := makeLeafCell(key, inline, ovf)
	pinErr := t.pinPut(key, cell)
	err := pinErr
	if err == nil {
		err = t.insert(key, cell, uint64(len(val)))
	}
	stale := t.stale
	t.stale = nil
	err = errors.Join(err, t.unpinPut())
	if pinErr != nil && ovf {
		err = errors.Join(err, t.freeOverflow(inline))
	}
	if err != nil {
		return err
	}
	if stale != nil {
		return t.freeOverflow(stale)
	}
	return nil
}

// pinPut pins what a Put of cell under key holds (see putPath) and
// allocates the spare pages its splits may take.
func (t *Tree) pinPut(key, cell []byte) error {
	p := &t.put
	fr, err := t.store.Get(t.desc)
	if err != nil {
		return err
	}
	p.frames = append(p.frames, *fr)
	for pid := t.root; ; {
		fr, err := t.store.Get(pid)
		if err != nil {
			return err
		}
		p.frames = append(p.frames, *fr)
		n := node{fr.Data()}
		if n.isLeaf() {
			break
		}
		idx := n.descend(key)
		p.idx = append(p.idx, idx)
		if idx < n.ncells() {
			pid = n.child(idx)
		} else {
			pid = n.next()
		}
	}
	for range t.sparesFor(key, cell) {
		id, fr, err := t.store.Allocate()
		if err != nil {
			return err
		}
		p.spares = append(p.spares, spare{id, *fr})
	}
	return nil
}

// sparesFor counts the pages an insert of cell along the pinned path may
// allocate: none when the leaf takes the cell; else one for the leaf, one
// for each ancestor that might not take the separator coming up — no
// longer than the longest key beneath it — and one for a new root when the
// root might split.
func (t *Tree) sparesFor(key, cell []byte) int {
	path := t.put.frames[1:]
	leaf := node{path[len(path)-1].Data()}
	if planLeaf(leaf, key, len(cell)).fits {
		return 0
	}
	sep := max(len(key), leaf.longestKey())
	for level := len(path) - 2; level >= 0; level-- {
		n := node{path[level].Data()}
		if n.freeTotal() >= 6+sep+slotSize {
			return len(path) - 1 - level
		}
		sep = max(sep, n.longestKey())
	}
	return len(path) + 1
}

// unpinPut lets go of what the Put held and frees the spares no split took.
func (t *Tree) unpinPut() error {
	p := &t.put
	for i := range p.frames {
		p.frames[i].Unpin()
	}
	var err error
	for i := range p.spares {
		p.spares[i].fr.Unpin()
		err = errors.Join(err, t.store.Free(p.spares[i].id))
	}
	clear(p.frames)
	clear(p.spares)
	*p = putPath{frames: p.frames[:0], idx: p.idx[:0], spares: p.spares[:0]}
	return err
}

// spare hands a split one of the pages its Put allocated up front.
func (t *Tree) spare() (pagestore.PageID, pagestore.Frame, error) {
	p := &t.put
	if len(p.spares) == 0 {
		return pagestore.InvalidPage, pagestore.Frame{}, errors.New("btree: a split found no spare page")
	}
	sp := p.spares[len(p.spares)-1]
	p.spares = p.spares[:len(p.spares)-1]
	return sp.id, sp.fr, nil
}

// insert puts cell into the pinned leaf, carries a split up through the
// pinned ancestors, grows a new root above a root that split, and writes
// the descriptor.
func (t *Tree) insert(key, cell []byte, valLen uint64) error {
	path := t.put.frames[1:]
	leaf := &path[len(path)-1]
	split, err := t.insertLeaf(leaf, node{leaf.Data()}, key, cell, valLen)
	for level := len(path) - 2; err == nil && split != nil && level >= 0; level-- {
		split, err = t.insertSeparator(&path[level], node{path[level].Data()}, t.put.idx[level], split)
	}
	if err != nil {
		return err
	}
	if split != nil {
		// Grow a new root above the old one.
		newRootID, fr, err := t.spare()
		if err != nil {
			return err
		}
		defer fr.Unpin()
		n := initNode(fr.Data(), typeInternal)
		if err := n.insertCellAt(0, makeInternalCell(split.sep, t.root)); err != nil {
			return err
		}
		n.setNext(split.right)
		fr.MarkDirty()
		t.root = newRootID
		t.height++
	}
	t.writeDesc(&t.put.frames[0])
	return nil
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
// index idx as part of the split, its right page a spare of the Put.
// Returns the separator for the parent.
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

	rightID, rightFr, err := t.spare()
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

// leafPlan is where and how a cell goes into a leaf: at idx, replacing the
// cell there when found — in place when it fits the old one's footprint
// (oldSize) — and without a split when fits.
type leafPlan struct {
	idx                  int
	found, inPlace, fits bool
	oldSize              int
}

func planLeaf(n node, key []byte, cellLen int) leafPlan {
	var p leafPlan
	p.idx, p.found = n.search(key)
	free := n.freeTotal()
	if p.found {
		p.oldSize = n.cellSize(p.idx)
		p.inPlace = cellLen <= p.oldSize
		free += p.oldSize + slotSize // what removing the replaced cell frees
	}
	p.fits = p.inPlace || free >= cellLen+slotSize
	return p
}

// insertLeaf performs the leaf-level upsert of cell, a value of valLen
// bytes, splitting when full. A replaced value's overflow chain is left in
// t.stale for Put to free.
func (t *Tree) insertLeaf(fr *pagestore.Frame, n node, key, cell []byte, valLen uint64) (*splitResult, error) {
	plan := planLeaf(n, key, len(cell))
	var oldRef []byte // the replaced value's overflow reference, copied out
	oldBytes := uint64(0)
	if plan.found {
		_, oldVal, oldOvf := n.leafCell(plan.idx)
		if oldOvf {
			oldRef = slices.Clone(oldVal)
			oldBytes = uint64(binary.LittleEndian.Uint32(oldVal))
		} else {
			oldBytes = uint64(len(oldVal))
		}
	}
	var split *splitResult
	switch {
	case plan.inPlace:
		// Fast path: overwrite in place when the new cell fits the old
		// cell's footprint (replace-heavy workloads would otherwise pay a
		// page compaction per update).
		copy(n.data[n.slotOffset(plan.idx):], cell)
		n.setFragBytes(n.fragBytes() + plan.oldSize - len(cell))
	case plan.fits:
		if plan.found {
			n.removeCellAt(plan.idx)
		}
		if err := n.insertCellAt(plan.idx, cell); err != nil {
			return nil, err
		}
	default:
		var err error
		if split, err = t.splitLeaf(fr, n, plan.idx, plan.found, cell); err != nil {
			return nil, err
		}
	}
	fr.MarkDirty()
	if !plan.found {
		t.count++
	}
	t.valueByte += valLen - oldBytes
	t.stale = oldRef
	return split, nil
}

// splitLeaf splits leaf n, inserting pending cell at logical index idx, or
// replacing the cell there when replace is set. The right page is a spare
// its Put allocated before changing anything.
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

	rightID, rightFr, err := t.spare()
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
