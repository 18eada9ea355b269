package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"odh/internal/metrics"
)

// Magic bytes identifying a pagestore file (format 2: checksummed pages,
// dual-slot meta).
var magic = [8]byte{'O', 'D', 'H', 'P', 'A', 'G', 'E', '2'}

// Meta page payload layout (page 0):
//
//	[0:8]   magic
//	[8:12]  format version
//	[12:16] number of pages (including meta)
//	[16:20] free list head PageID
//	[20:24] number of named roots
//	[24:]   named roots: {nameLen uint16, name bytes, page uint32}*
//
// On disk every page occupies one DiskPageSize slot: an 8-byte header
// (CRC32-C over aux word + payload + page number, then the aux word)
// followed by the PageSize payload. The meta page is double-written: it
// owns physical slots 0 and 1 and alternates between them with a
// monotonically increasing epoch in the aux word, so a torn meta write
// loses at most the newest epoch, never the store's roots. Data page id
// (>= 1) lives in physical slot id+1.
const (
	metaVersion     = 2
	offNumPages     = 12
	offFreeHead     = 16
	offNumRoots     = 20
	offRoots        = 24
	maxRootNameLen  = 64
	defaultPoolSize = 1024

	// maxPartitions caps the buffer-pool latch partitioning; minPartPages
	// is the smallest per-partition pool worth splitting into (tiny pools
	// collapse to one partition, preserving exact LRU/eviction behavior).
	maxPartitions = 16
	minPartPages  = 64
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// most CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by Store operations.
var (
	ErrBadMagic    = errors.New("pagestore: bad magic (not a pagestore file)")
	ErrBadVersion  = errors.New("pagestore: unsupported format version")
	ErrPageRange   = errors.New("pagestore: page id out of range")
	ErrClosed      = errors.New("pagestore: store is closed")
	ErrRootMissing = errors.New("pagestore: named root not found")
	ErrPoolFull    = errors.New("pagestore: buffer pool exhausted (all frames pinned)")
	// ErrCorrupt is the sentinel wrapped by every checksum failure;
	// errors.Is(err, ErrCorrupt) matches any ErrCorruptPage.
	ErrCorrupt = errors.New("pagestore: page corrupt")
)

// ErrCorruptPage reports a page whose on-disk checksum did not match its
// contents (bit rot, a torn write, or a page that was never written).
type ErrCorruptPage struct {
	PageNo PageID
}

func (e *ErrCorruptPage) Error() string {
	return fmt.Sprintf("pagestore: page %d corrupt (checksum mismatch)", e.PageNo)
}

// Unwrap lets errors.Is(err, ErrCorrupt) match.
func (e *ErrCorruptPage) Unwrap() error { return ErrCorrupt }

// Stats counts buffer-pool and I/O activity. The IoT-X metrics layer reads
// these to report I/O throughput and storage size.
type Stats struct {
	Hits         int64 // buffer pool hits
	Misses       int64 // buffer pool misses (page read from file)
	Evictions    int64 // unpinned frames written back / dropped for space
	PageReads    int64 // pages read from the backing file
	PageWrites   int64 // pages written to the backing file
	BytesRead    int64
	BytesWritten int64
	Allocs       int64 // pages allocated
	Frees        int64 // pages freed
}

// HitRate returns the buffer-pool hit fraction in [0, 1] (0 when the pool
// was never touched).
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Options configures a Store.
type Options struct {
	// PoolPages is the buffer pool capacity in pages. Zero means a default
	// of 1024 pages (4 MiB).
	PoolPages int
	// PoolPartitions overrides the buffer pool's latch partition count
	// (rounded to a power of two, capped at 16). Zero picks a default from
	// GOMAXPROCS and the pool size; 1 gives a single global pool latch.
	PoolPartitions int
}

// frame is one buffer-pool slot.
type frame struct {
	id    PageID
	data  [PageSize]byte
	pins  int
	dirty bool
	// Neighbours in the partition's LRU list. A frame is on the list exactly
	// while it is unpinned; the links live in the frame so that pinning and
	// unpinning allocate nothing.
	newer, older *frame
}

// blockIO is a per-lock-domain I/O scratch: a block buffer plus the stats
// it accounts to. Each pool partition owns one (guarded by the partition
// latch), and the store's meta domain owns one (guarded by metaMu), so
// block reads and writes in different domains never share a buffer.
type blockIO struct {
	iobuf [DiskPageSize]byte
	stats Stats
}

// partition is one latch-partitioned segment of the buffer pool. Pages
// hash to exactly one partition by PageID, so readers and writers of
// pages in different partitions proceed in parallel.
type partition struct {
	mu     sync.Mutex
	cap    int
	frames map[PageID]*frame
	mru    *frame // most and least recently used of the unpinned frames
	lru    *frame
	io     blockIO
}

// Store manages fixed-size pages in a File behind a latch-partitioned LRU
// buffer pool. All methods are safe for concurrent use. Page contents
// handed out by Get are owned by the pool; callers must hold the pin while
// reading or writing the data and call MarkDirty before Unpin after
// mutation.
//
// A pin protects a page from eviction, not from Flush. What orders page
// writers against Flush is the store's writer gate: whoever changes the
// bytes of a pinned frame does so between BeginWrite and EndWrite (a shared
// hold, so writers of different pages do not meet there), and Flush,
// SetRoot and Close copy frames out under the exclusive hold — a page image
// caught half-way through an update would carry a valid checksum. Readers
// never take the gate.
//
// Lock order: the writer gate, then metaMu, then partition latches in
// index order. numPages and closed are atomics so the hot Get path takes
// only its page's partition latch.
type Store struct {
	file   File
	closed atomic.Bool
	gate   sync.RWMutex // the writer gate

	numPages atomic.Uint32

	metaMu    sync.Mutex // guards freeHead, metaEpoch, roots, metaIO
	freeHead  PageID
	metaEpoch uint32 // epoch of the newest valid meta slot
	roots     map[string]PageID
	metaIO    blockIO // meta page + alloc/free + verify accounting

	parts    []*partition
	partMask uint32
}

// partitionCount picks the pool's latch partition count: a power of two
// sized from GOMAXPROCS, but never so many that a partition drops below
// minPartPages frames (tiny pools collapse to one partition).
func partitionCount(poolPages, override int) int {
	n := override
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxPartitions {
		n = maxPartitions
	}
	for n > 1 && poolPages/n < minPartPages {
		n /= 2
	}
	// Round down to a power of two so partition selection is a mask.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Open initializes a Store on f. An empty file is formatted; an existing
// file has its meta page validated and loaded.
func Open(f File, opts Options) (*Store, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = defaultPoolSize
	}
	nparts := partitionCount(opts.PoolPages, opts.PoolPartitions)
	s := &Store{
		file:     f,
		roots:    make(map[string]PageID),
		parts:    make([]*partition, nparts),
		partMask: uint32(nparts - 1),
	}
	perCap := opts.PoolPages / nparts
	if perCap < 1 {
		perCap = 1
	}
	for i := range s.parts {
		s.parts[i] = &partition{
			cap:    perCap,
			frames: make(map[PageID]*frame, perCap),
		}
	}
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("pagestore: size: %w", err)
	}
	if size == 0 {
		if err := s.format(); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := s.loadMeta(); err != nil {
		return nil, err
	}
	return s, nil
}

// part returns the partition owning page id. The multiplicative hash
// spreads both sequential B-tree pages and strided access patterns.
func (s *Store) part(id PageID) *partition {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return s.parts[uint32(h>>32)&s.partMask]
}

// pageChecksum computes the CRC32-C of a page slot: aux word, payload,
// then the page number, so a valid page replayed at the wrong slot still
// fails verification.
func pageChecksum(aux uint32, payload []byte, pageNo PageID) uint32 {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], aux)
	crc := crc32.Update(0, crcTable, w[:])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(w[:], uint32(pageNo))
	return crc32.Update(crc, crcTable, w[:])
}

// blockFor maps a logical page to its physical slot: the meta page owns
// slots 0 and 1 (double write), data page id lives at slot id+1.
func blockFor(id PageID) int64 { return int64(id) + 1 }

// writeBlock seals payload with its checksum header and writes the slot.
// Caller holds the lock guarding bio.
func (s *Store) writeBlock(bio *blockIO, block int64, pageNo PageID, aux uint32, payload []byte) error {
	binary.LittleEndian.PutUint32(bio.iobuf[0:4], pageChecksum(aux, payload, pageNo))
	binary.LittleEndian.PutUint32(bio.iobuf[4:8], aux)
	copy(bio.iobuf[PageHeaderSize:], payload[:PageSize])
	n, err := s.file.WriteAt(bio.iobuf[:], block*DiskPageSize)
	bio.stats.PageWrites++
	bio.stats.BytesWritten += int64(n)
	if err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", pageNo, err)
	}
	return nil
}

// readBlock reads one slot, verifies its checksum, and copies the payload
// out. A checksum mismatch or a slot that was never written reports
// ErrCorruptPage. Caller holds the lock guarding bio.
func (s *Store) readBlock(bio *blockIO, block int64, pageNo PageID, payload []byte) (aux uint32, err error) {
	n, rerr := s.file.ReadAt(bio.iobuf[:], block*DiskPageSize)
	bio.stats.PageReads++
	bio.stats.BytesRead += int64(n)
	if rerr != nil {
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			// Short read / EOF: the slot does not exist on disk (truncated
			// file). Report it as corruption so callers can quarantine
			// rather than crash; real device errors pass through as-is.
			return 0, &ErrCorruptPage{PageNo: pageNo}
		}
		return 0, fmt.Errorf("pagestore: read page %d: %w", pageNo, rerr)
	}
	want := binary.LittleEndian.Uint32(bio.iobuf[0:4])
	aux = binary.LittleEndian.Uint32(bio.iobuf[4:8])
	if pageChecksum(aux, bio.iobuf[PageHeaderSize:], pageNo) != want {
		return 0, &ErrCorruptPage{PageNo: pageNo}
	}
	copy(payload[:PageSize], bio.iobuf[PageHeaderSize:])
	return aux, nil
}

// buildMeta serializes the meta payload from the store's state.
// Caller holds s.metaMu.
func (s *Store) buildMeta(page []byte) error {
	copy(page[:8], magic[:])
	binary.LittleEndian.PutUint32(page[8:12], metaVersion)
	binary.LittleEndian.PutUint32(page[offNumPages:], s.numPages.Load())
	binary.LittleEndian.PutUint32(page[offFreeHead:], uint32(s.freeHead))
	binary.LittleEndian.PutUint32(page[offNumRoots:], uint32(len(s.roots)))
	off := offRoots
	for name, id := range s.roots {
		need := 2 + len(name) + 4
		if off+need > PageSize {
			return errors.New("pagestore: root directory overflow")
		}
		binary.LittleEndian.PutUint16(page[off:], uint16(len(name)))
		off += 2
		copy(page[off:], name)
		off += len(name)
		binary.LittleEndian.PutUint32(page[off:], uint32(id))
		off += 4
	}
	return nil
}

// format writes a fresh meta page into slot 0.
func (s *Store) format() error {
	s.numPages.Store(1)
	s.freeHead = InvalidPage
	s.metaEpoch = 0
	var page [PageSize]byte
	if err := s.buildMeta(page[:]); err != nil {
		return err
	}
	return s.writeBlock(&s.metaIO, 0, 0, 0, page[:])
}

// loadMeta reads both meta slots and loads the newest valid one. A torn
// write in one slot falls back to the other (older but consistent) epoch.
func (s *Store) loadMeta() error {
	var best [PageSize]byte
	bestEpoch, found := uint32(0), false
	sawMagic := false
	var page [PageSize]byte
	for slot := int64(0); slot < 2; slot++ {
		epoch, err := s.readBlock(&s.metaIO, slot, 0, page[:])
		if err != nil {
			continue // torn, missing, or rotted slot: try the other
		}
		if [8]byte(page[:8]) != magic {
			continue
		}
		sawMagic = true
		if v := binary.LittleEndian.Uint32(page[8:12]); v != metaVersion {
			return fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
		if !found || epoch > bestEpoch {
			best, bestEpoch, found = page, epoch, true
		}
	}
	if !found {
		if sawMagic {
			return &ErrCorruptPage{PageNo: 0}
		}
		return ErrBadMagic
	}
	s.metaEpoch = bestEpoch
	s.numPages.Store(binary.LittleEndian.Uint32(best[offNumPages:]))
	s.freeHead = PageID(binary.LittleEndian.Uint32(best[offFreeHead:]))
	n := int(binary.LittleEndian.Uint32(best[offNumRoots:]))
	off := offRoots
	for i := 0; i < n; i++ {
		if off+2 > PageSize {
			return errors.New("pagestore: corrupt root directory")
		}
		nameLen := int(binary.LittleEndian.Uint16(best[off:]))
		off += 2
		if nameLen > maxRootNameLen || off+nameLen+4 > PageSize {
			return errors.New("pagestore: corrupt root directory")
		}
		name := string(best[off : off+nameLen])
		off += nameLen
		s.roots[name] = PageID(binary.LittleEndian.Uint32(best[off:]))
		off += 4
	}
	return nil
}

// flushMeta persists the meta page (counts, free list head, root
// directory) into the slot the current epoch does NOT occupy, so the
// previous meta stays intact until the new one is fully on disk.
// Caller holds s.metaMu.
func (s *Store) flushMeta() error {
	var page [PageSize]byte
	if err := s.buildMeta(page[:]); err != nil {
		return err
	}
	epoch := s.metaEpoch + 1
	if err := s.writeBlock(&s.metaIO, int64(epoch%2), 0, epoch, page[:]); err != nil {
		return err
	}
	s.metaEpoch = epoch
	return nil
}

// Allocate returns a fresh page, either reusing a freed page or extending
// the file. The page's contents are zeroed. The returned page is pinned;
// call Unpin when done.
func (s *Store) Allocate() (PageID, *Frame, error) {
	if s.closed.Load() {
		return InvalidPage, nil, ErrClosed
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if s.freeHead != InvalidPage {
		// Pop the free list: the first 4 bytes of a free page hold the next
		// free page id.
		id := s.freeHead
		p := s.part(id)
		p.mu.Lock()
		fr, err := p.pin(s, id)
		if err != nil {
			p.mu.Unlock()
			return InvalidPage, nil, err
		}
		s.freeHead = PageID(binary.LittleEndian.Uint32(fr.data[:4]))
		clear(fr.data[:])
		fr.dirty = true
		p.mu.Unlock()
		s.metaIO.stats.Allocs++
		return id, &Frame{s: s, f: fr}, nil
	}
	id := PageID(s.numPages.Load())
	p := s.part(id)
	p.mu.Lock()
	fr, err := p.pinFresh(s, id)
	if err != nil {
		p.mu.Unlock()
		return InvalidPage, nil, err
	}
	s.numPages.Add(1)
	fr.dirty = true
	p.mu.Unlock()
	s.metaIO.stats.Allocs++
	return id, &Frame{s: s, f: fr}, nil
}

// Free returns a page to the free list. The caller must not hold a pin on it.
func (s *Store) Free(id PageID) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if id == InvalidPage || uint32(id) >= s.numPages.Load() {
		return ErrPageRange
	}
	p := s.part(id)
	p.mu.Lock()
	fr, err := p.pin(s, id)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	clear(fr.data[:])
	binary.LittleEndian.PutUint32(fr.data[:4], uint32(s.freeHead))
	fr.dirty = true
	s.freeHead = id
	s.metaIO.stats.Frees++
	p.unpin(fr)
	p.mu.Unlock()
	return nil
}

// Get pins page id into the buffer pool and returns a Frame handle. It is
// small enough to inline, so a caller that unpins the frame before
// returning keeps the handle on its stack.
func (s *Store) Get(id PageID) (*Frame, error) {
	h, err := s.pinPage(id)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

func (s *Store) pinPage(id PageID) (Frame, error) {
	if s.closed.Load() {
		return Frame{}, ErrClosed
	}
	if id == InvalidPage || uint32(id) >= s.numPages.Load() {
		// A reference to a page this epoch never allocated is a dangling
		// pointer — after a crash it means the referencing page was flushed
		// but its target was not, so scans treat it as corruption.
		return Frame{}, fmt.Errorf("%w: %d (have %d): %w", ErrPageRange, id, s.numPages.Load(), ErrCorrupt)
	}
	p := s.part(id)
	p.mu.Lock()
	fr, err := p.pin(s, id)
	p.mu.Unlock()
	return Frame{s: s, f: fr}, err
}

// pin brings page id into the partition (reading it if absent) and pins
// it. Caller holds p.mu.
func (p *partition) pin(s *Store, id PageID) (*frame, error) {
	if fr, ok := p.frames[id]; ok {
		p.io.stats.Hits++
		if fr.pins == 0 {
			p.unlist(fr)
		}
		fr.pins++
		return fr, nil
	}
	p.io.stats.Misses++
	fr, err := p.newFrame(s, id)
	if err != nil {
		return nil, err
	}
	if _, err := s.readBlock(&p.io, blockFor(id), id, fr.data[:]); err != nil {
		delete(p.frames, id)
		return nil, err
	}
	fr.pins = 1
	return fr, nil
}

// pinFresh pins a newly allocated page without reading the file.
// Caller holds p.mu.
func (p *partition) pinFresh(s *Store, id PageID) (*frame, error) {
	fr, err := p.newFrame(s, id)
	if err != nil {
		return nil, err
	}
	clear(fr.data[:])
	fr.pins = 1
	return fr, nil
}

// newFrame finds a slot for page id. A full partition evicts its least
// recently used unpinned frame and hands that frame's memory on, whatever
// bytes it holds: the caller reads or clears the page. Caller holds p.mu.
func (p *partition) newFrame(s *Store, id PageID) (fr *frame, err error) {
	if len(p.frames) < p.cap {
		fr = &frame{}
	} else if fr, err = p.evictOne(s); err != nil {
		return nil, err
	}
	fr.id = id
	p.frames[id] = fr
	return fr, nil
}

// evictOne writes back and drops the LRU unpinned frame, returning it for
// reuse. Caller holds p.mu.
func (p *partition) evictOne(s *Store) (*frame, error) {
	fr := p.lru
	if fr == nil {
		return nil, ErrPoolFull
	}
	if fr.dirty {
		if err := s.writeBlock(&p.io, blockFor(fr.id), fr.id, 0, fr.data[:]); err != nil {
			return nil, err
		}
		fr.dirty = false
	}
	p.unlist(fr)
	delete(p.frames, fr.id)
	p.io.stats.Evictions++
	return fr, nil
}

// unpin releases one pin. Caller holds p.mu.
func (p *partition) unpin(fr *frame) {
	fr.pins--
	if fr.pins == 0 {
		fr.older, p.mru = p.mru, fr
		if fr.older != nil {
			fr.older.newer = fr
		} else {
			p.lru = fr
		}
	}
}

// unlist takes an unpinned frame off the LRU list. Caller holds p.mu.
func (p *partition) unlist(fr *frame) {
	if fr.newer != nil {
		fr.newer.older = fr.older
	} else {
		p.mru = fr.older
	}
	if fr.older != nil {
		fr.older.newer = fr.newer
	} else {
		p.lru = fr.newer
	}
	fr.newer, fr.older = nil, nil
}

// SetRoot records a named root page in the meta page. Higher layers use
// this to anchor B-trees and heap tables. It runs the full two-phase
// checkpoint, not just a meta write: the new root's content pages may
// still be dirty in the pool, and committing a meta that references a
// page the file does not yet hold would leave a crash-corrupt store.
// Roots are created rarely, so the extra flush is cheap.
func (s *Store) SetRoot(name string, id PageID) error {
	if len(name) == 0 || len(name) > maxRootNameLen {
		return fmt.Errorf("pagestore: invalid root name %q", name)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.lockAll()
	defer s.unlockAll()
	s.roots[name] = id
	return s.flushLocked()
}

// Root looks up a named root page.
func (s *Store) Root(name string) (PageID, error) {
	if s.closed.Load() {
		return InvalidPage, ErrClosed
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	id, ok := s.roots[name]
	if !ok {
		return InvalidPage, fmt.Errorf("%w: %q", ErrRootMissing, name)
	}
	return id, nil
}

// Roots returns the names of all registered roots.
func (s *Store) Roots() []string {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	names := make([]string, 0, len(s.roots))
	for name := range s.roots {
		names = append(names, name)
	}
	return names
}

// BeginWrite opens a page-writing section: until the matching EndWrite no
// Flush runs, so the section may change pinned frames (and MarkDirty them)
// without a flush copying one mid-update. Sections of different goroutines
// overlap; what they exclude is Flush, SetRoot and Close, none of which may
// be called from inside one.
func (s *Store) BeginWrite() { s.gate.RLock() }

// EndWrite closes the section BeginWrite opened.
func (s *Store) EndWrite() { s.gate.RUnlock() }

// lockAll acquires the writer gate exclusively, the meta lock and every
// partition latch in fixed (index) order — the flush/close path's global
// quiesce. unlockAll releases them in reverse.
func (s *Store) lockAll() {
	s.gate.Lock()
	s.metaMu.Lock()
	for _, p := range s.parts {
		p.mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := len(s.parts) - 1; i >= 0; i-- {
		s.parts[i].mu.Unlock()
	}
	s.metaMu.Unlock()
	s.gate.Unlock()
}

// Flush writes all dirty frames and the meta page to the file and syncs it.
func (s *Store) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.lockAll()
	defer s.unlockAll()
	return s.flushLocked()
}

// flushLocked runs the two-phase flush protocol. Caller holds the writer
// gate, the meta lock and every partition latch (lockAll), so no frame
// changes under the copy and no new dirty pages can slip in between the
// data sync and the meta write.
func (s *Store) flushLocked() error {
	// Write dirty pages in ascending id order: the I/O is sequential on
	// disk, and a crash mid-flush tears a deterministic prefix of the
	// dirty set rather than a random map-order subset.
	type dirtyPage struct {
		fr *frame
		p  *partition
	}
	var dirty []dirtyPage
	for _, p := range s.parts {
		for _, fr := range p.frames {
			if fr.dirty {
				dirty = append(dirty, dirtyPage{fr: fr, p: p})
			}
		}
	}
	slices.SortFunc(dirty, func(a, b dirtyPage) int {
		return int(int64(a.fr.id) - int64(b.fr.id))
	})
	for _, d := range dirty {
		if err := s.writeBlock(&d.p.io, blockFor(d.fr.id), d.fr.id, 0, d.fr.data[:]); err != nil {
			return err
		}
	}
	// Sync data pages before the meta page points at them: a crash between
	// the two syncs leaves the previous meta epoch valid and every page it
	// references fully on disk. A frame is clean only once that sync has
	// succeeded, so a flush retried after a failure (Close does) writes and
	// syncs the same pages again before any meta page can name them.
	if len(dirty) > 0 {
		if err := s.file.Sync(); err != nil {
			return err
		}
	}
	for _, d := range dirty {
		d.fr.dirty = false
	}
	if err := s.flushMeta(); err != nil {
		return err
	}
	return s.file.Sync()
}

// Close flushes and closes the store. Further operations return ErrClosed.
// A failed flush still closes the file — the first error comes back, and
// what reached the file is whatever the last successful Flush committed.
func (s *Store) Close() error {
	if s.closed.Load() {
		return nil
	}
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() {
		return nil
	}
	err := s.flushLocked()
	s.closed.Store(true)
	if cerr := s.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// NumPages returns the total number of pages (including meta and free pages).
func (s *Store) NumPages() uint32 {
	return s.numPages.Load()
}

// SizeBytes returns the on-disk size of the store in bytes (the meta
// page's second slot included).
func (s *Store) SizeBytes() int64 {
	return (int64(s.NumPages()) + 1) * DiskPageSize
}

// VerifyPages scrubs the on-disk image, verifying every page checksum
// without disturbing the buffer pool. Dirty frames not yet flushed make
// the on-disk copy stale but still checksum-valid, so callers wanting an
// exact picture should Flush first. The meta page (id 0) is reported
// corrupt only when neither of its slots is valid. The scrub runs on its
// own scratch buffer, so concurrent page access keeps flowing.
func (s *Store) VerifyPages() (checked int, corrupt []PageID, err error) {
	if s.closed.Load() {
		return 0, nil, ErrClosed
	}
	scratch := &blockIO{}
	var page [PageSize]byte
	metaOK := false
	for slot := int64(0); slot < 2; slot++ {
		if _, err := s.readBlock(scratch, slot, 0, page[:]); err == nil {
			metaOK = true
			break
		}
	}
	checked++
	if !metaOK {
		corrupt = append(corrupt, 0)
	}
	// Scrub to the physical end of the file, not just this epoch's page
	// count: a crash mid-flush can leave torn pages past the recovered
	// meta's extent, and fsck should surface them.
	last := s.numPages.Load()
	if size, err := s.file.Size(); err == nil {
		if blocks := (size + DiskPageSize - 1) / DiskPageSize; blocks > int64(last)+1 {
			last = uint32(blocks - 1)
		}
	}
	for id := PageID(1); uint32(id) < last; id++ {
		checked++
		if _, err := s.readBlock(scratch, blockFor(id), id, page[:]); err != nil {
			corrupt = append(corrupt, id)
		}
	}
	s.metaMu.Lock()
	metrics.Add(&s.metaIO.stats, &scratch.stats)
	s.metaMu.Unlock()
	return checked, corrupt, nil
}

// Stats returns a snapshot of I/O counters aggregated across the meta
// domain and every pool partition.
func (s *Store) Stats() Stats {
	s.metaMu.Lock()
	st := s.metaIO.stats
	s.metaMu.Unlock()
	for _, p := range s.parts {
		p.mu.Lock()
		metrics.Add(&st, &p.io.stats)
		p.mu.Unlock()
	}
	return st
}

// PartitionStats returns a per-partition snapshot of pool counters (hits,
// misses, evictions, partition-local I/O). Meta-page and alloc/free
// accounting is not included; Stats aggregates everything.
func (s *Store) PartitionStats() []Stats {
	out := make([]Stats, len(s.parts))
	for i, p := range s.parts {
		p.mu.Lock()
		out[i] = p.io.stats
		p.mu.Unlock()
	}
	return out
}

// Frame is a pinned page handle. Data returns the page contents; the slice
// is valid until Unpin. Frames are not safe for concurrent use; concurrent
// access to the same page must be coordinated by the caller (the B-tree and
// heap layers serialize structurally).
type Frame struct {
	s        *Store
	f        *frame
	released bool
}

// Data returns the page bytes. Mutations happen inside a BeginWrite
// section and must be followed by MarkDirty.
func (fr *Frame) Data() []byte { return fr.f.data[:] }

// MarkDirty records that the page was modified and must be written back.
// Call it inside the BeginWrite section that made the change.
func (fr *Frame) MarkDirty() { fr.f.dirty = true }

// Unpin releases the frame. It is idempotent.
func (fr *Frame) Unpin() {
	if fr.released {
		return
	}
	fr.released = true
	p := fr.s.part(fr.f.id)
	p.mu.Lock()
	p.unpin(fr.f)
	p.mu.Unlock()
}
