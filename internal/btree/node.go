// Package btree implements a disk-backed B+tree over the pagestore. It is
// the index structure used everywhere the paper uses Informix B-trees: the
// primary key of the three batch stores (RTS, IRTS, MG) and the secondary
// indexes of the relational baseline engine. Keys and values are opaque
// byte strings; keys compare with bytes.Compare (see keyenc for
// order-preserving encodings). Values larger than maxInlineValue spill to
// overflow page chains, which is how multi-kilobyte ValueBlobs are stored.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"odh/internal/pagestore"
)

// Node page layout:
//
//	[0]     type: 1 = leaf, 2 = internal
//	[1]     reserved
//	[2:4]   ncells
//	[4:6]   cellStart: lowest offset of cell content (cells fill toward PageSize)
//	[6:8]   fragBytes: dead bytes inside the cell area from removals
//	[8:12]  leaf: right-sibling page; internal: rightmost child page
//	[12:]   slot directory (ncells * uint16 cell offsets), then free space,
//	        then cell content.
//
// Leaf cell:     keyLen u16, valLen u16 (high bit = overflow), key, value.
// Overflow ref:  totalLen u32, firstPage u32 (in place of the value).
// Internal cell: keyLen u16, child u32, key. Child i holds keys < key i;
// the header's rightmost child holds keys >= the last separator.
const (
	nodeHeaderSize = 12
	slotSize       = 2

	typeLeaf     = 1
	typeInternal = 2

	// MaxKeyLen bounds key size so every node fits several cells.
	MaxKeyLen = 512
	// maxInlineValue is the largest value stored inside a leaf cell; larger
	// values go to overflow chains.
	maxInlineValue = 1024

	ovfHeaderSize = 6 // next page u32 + chunk len u16
	ovfChunkSize  = pagestore.PageSize - ovfHeaderSize

	// ChainChunk is how much of a value each page of its overflow chain
	// holds, the last page the rest; an inline value is shorter. A read
	// through it (Cursor.AppendValuePart) costs one page, and one through a
	// multiple of it ends at a page's end.
	ChainChunk = ovfChunkSize

	overflowBit = 0x8000
)

// Errors returned by tree operations.
var (
	ErrKeyTooLong = fmt.Errorf("btree: key exceeds %d bytes", MaxKeyLen)
	ErrNotFound   = errors.New("btree: key not found")
	errCorrupt    = errors.New("btree: corrupt node")
)

// node wraps a page's bytes with B+tree accessors. It does not own the
// frame; the caller manages pinning.
type node struct {
	data []byte
}

func (n node) typ() byte      { return n.data[0] }
func (n node) isLeaf() bool   { return n.data[0] == typeLeaf }
func (n node) ncells() int    { return int(binary.LittleEndian.Uint16(n.data[2:])) }
func (n node) cellStart() int { return int(binary.LittleEndian.Uint16(n.data[4:])) }
func (n node) fragBytes() int { return int(binary.LittleEndian.Uint16(n.data[6:])) }
func (n node) next() pagestore.PageID {
	return pagestore.PageID(binary.LittleEndian.Uint32(n.data[8:]))
}

func (n node) setType(t byte)     { n.data[0] = t }
func (n node) setNcells(c int)    { binary.LittleEndian.PutUint16(n.data[2:], uint16(c)) }
func (n node) setCellStart(o int) { binary.LittleEndian.PutUint16(n.data[4:], uint16(o)) }
func (n node) setFragBytes(b int) { binary.LittleEndian.PutUint16(n.data[6:], uint16(b)) }
func (n node) setNext(p pagestore.PageID) {
	binary.LittleEndian.PutUint32(n.data[8:], uint32(p))
}

// initNode formats a fresh page as an empty node of the given type.
func initNode(data []byte, typ byte) node {
	n := node{data}
	n.setType(typ)
	n.setNcells(0)
	n.setCellStart(pagestore.PageSize)
	n.setFragBytes(0)
	n.setNext(pagestore.InvalidPage)
	return n
}

func (n node) slotOffset(i int) int {
	return int(binary.LittleEndian.Uint16(n.data[nodeHeaderSize+i*slotSize:]))
}

func (n node) setSlotOffset(i, off int) {
	binary.LittleEndian.PutUint16(n.data[nodeHeaderSize+i*slotSize:], uint16(off))
}

// cellKey returns the key of cell i (both node types share the layout
// prefix keyLen u16 at the cell head; leaf key starts at +4, internal at +6).
func (n node) cellKey(i int) []byte {
	off := n.slotOffset(i)
	keyLen := int(binary.LittleEndian.Uint16(n.data[off:]))
	if n.isLeaf() {
		return n.data[off+4 : off+4+keyLen]
	}
	return n.data[off+6 : off+6+keyLen]
}

// leafCell returns the key, inline value bytes, and overflow flag of leaf
// cell i. When ovf is true, val holds the 8-byte overflow reference.
func (n node) leafCell(i int) (key, val []byte, ovf bool) {
	off := n.slotOffset(i)
	keyLen := int(binary.LittleEndian.Uint16(n.data[off:]))
	rawLen := binary.LittleEndian.Uint16(n.data[off+2:])
	ovf = rawLen&overflowBit != 0
	valLen := int(rawLen &^ overflowBit)
	key = n.data[off+4 : off+4+keyLen]
	val = n.data[off+4+keyLen : off+4+keyLen+valLen]
	return key, val, ovf
}

// child returns the child pointer of internal cell i.
func (n node) child(i int) pagestore.PageID {
	off := n.slotOffset(i)
	return pagestore.PageID(binary.LittleEndian.Uint32(n.data[off+2:]))
}

func (n node) setChild(i int, p pagestore.PageID) {
	off := n.slotOffset(i)
	binary.LittleEndian.PutUint32(n.data[off+2:], uint32(p))
}

// cellSize returns the stored size of cell i.
func (n node) cellSize(i int) int {
	off := n.slotOffset(i)
	keyLen := int(binary.LittleEndian.Uint16(n.data[off:]))
	if n.isLeaf() {
		valLen := int(binary.LittleEndian.Uint16(n.data[off+2:]) &^ overflowBit)
		return 4 + keyLen + valLen
	}
	return 6 + keyLen
}

// freeContiguous returns the bytes available between the slot directory and
// the cell content area.
func (n node) freeContiguous() int {
	return n.cellStart() - nodeHeaderSize - n.ncells()*slotSize
}

// freeTotal includes fragmented space reclaimable by compaction.
func (n node) freeTotal() int { return n.freeContiguous() + n.fragBytes() }

// search finds the first cell whose key is >= key. found reports an exact
// match.
func (n node) search(key []byte) (idx int, found bool) {
	lo, hi := 0, n.ncells()
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(n.cellKey(mid), key) {
		case 0:
			return mid, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// descend returns the child slot to follow for key: the first cell whose
// separator is strictly greater than key (child i holds keys < separator i,
// so an exact separator match belongs to the right-hand child).
func (n node) descend(key []byte) int {
	idx, found := n.search(key)
	if found {
		idx++
	}
	return idx
}

// insertCellAt writes raw cell bytes and a slot at index i. Caller must
// ensure freeTotal() >= len(cell)+slotSize; insertCellAt compacts if the
// contiguous region is too small.
func (n node) insertCellAt(i int, cell []byte) error {
	need := len(cell) + slotSize
	if n.freeTotal() < need {
		return errCorrupt // caller should have split first
	}
	if n.freeContiguous() < need {
		n.compact()
	}
	off := n.cellStart() - len(cell)
	copy(n.data[off:], cell)
	n.setCellStart(off)
	// Shift slots i.. right by one.
	nc := n.ncells()
	start := nodeHeaderSize + i*slotSize
	end := nodeHeaderSize + nc*slotSize
	copy(n.data[start+slotSize:end+slotSize], n.data[start:end])
	n.setSlotOffset(i, off)
	n.setNcells(nc + 1)
	return nil
}

// removeCellAt deletes the slot at i; the cell bytes become fragmentation.
func (n node) removeCellAt(i int) {
	n.setFragBytes(n.fragBytes() + n.cellSize(i))
	nc := n.ncells()
	start := nodeHeaderSize + i*slotSize
	end := nodeHeaderSize + nc*slotSize
	copy(n.data[start:], n.data[start+slotSize:end])
	n.setNcells(nc - 1)
}

// compact rewrites all cells contiguously at the page tail, clearing
// fragmentation.
func (n node) compact() {
	nc := n.ncells()
	type cellRef struct {
		slot int
		body []byte
	}
	cells := make([]cellRef, nc)
	for i := 0; i < nc; i++ {
		off := n.slotOffset(i)
		size := n.cellSize(i)
		body := make([]byte, size)
		copy(body, n.data[off:off+size])
		cells[i] = cellRef{i, body}
	}
	pos := pagestore.PageSize
	for _, c := range cells {
		pos -= len(c.body)
		copy(n.data[pos:], c.body)
		n.setSlotOffset(c.slot, pos)
	}
	n.setCellStart(pos)
	n.setFragBytes(0)
}

// makeLeafCell builds the raw bytes of a leaf cell. val is either the inline
// value or an 8-byte overflow reference when ovf is set.
func makeLeafCell(key, val []byte, ovf bool) []byte {
	cell := make([]byte, 4+len(key)+len(val))
	binary.LittleEndian.PutUint16(cell, uint16(len(key)))
	raw := uint16(len(val))
	if ovf {
		raw |= overflowBit
	}
	binary.LittleEndian.PutUint16(cell[2:], raw)
	copy(cell[4:], key)
	copy(cell[4+len(key):], val)
	return cell
}

// makeInternalCell builds the raw bytes of an internal cell.
func makeInternalCell(key []byte, child pagestore.PageID) []byte {
	cell := make([]byte, 6+len(key))
	binary.LittleEndian.PutUint16(cell, uint16(len(key)))
	binary.LittleEndian.PutUint32(cell[2:], uint32(child))
	copy(cell[6:], key)
	return cell
}
