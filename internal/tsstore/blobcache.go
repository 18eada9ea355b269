package tsstore

import (
	"container/list"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// The decoded-ValueBlob cache sits between the scan iterators and the
// pagestore: a blob that was read and column-decoded once is kept in its
// decoded form, so repeated scans over the same history skip both the
// B+tree value fetch and DecodeBlob — the row-assembly overhead the paper
// measures as the VTI blocker (Table 8). Entries are keyed by the blob's
// B+tree identity (tree, source/group id, base timestamp) plus the decode
// variant (which tags were materialized), and invalidated whenever a
// writer Puts or Deletes that key — every write ends in rewriteLocked.

// Cache tree ids, one per batch tree a blob key can live in.
const (
	cacheTreeRTS  uint8 = 1
	cacheTreeIRTS uint8 = 2
	cacheTreeMG   uint8 = 3
)

// blobKey identifies one blob record: every batch tree keys records by
// keyenc.SourceTime(source-or-group, baseTS), so the decoded triple is a
// complete identity.
type blobKey struct {
	tree   uint8
	source int64
	ts     int64
}

// cacheVerSlots is the size of the key-hashed version array used to close
// the read/insert race (see blobCache.vers).
const cacheVerSlots = 256

func (k blobKey) slot() int {
	h := uint64(k.source)*0x9E3779B97F4A7C15 ^ uint64(k.ts)*0xC2B2AE3D27D4EB4F ^ uint64(k.tree)
	return int((h >> 32) % cacheVerSlots)
}

// tagsSig canonicalizes a wantTags selection into a cache variant key.
// nil (decode everything) and an explicit list are distinct variants, and
// two lists selecting the same set map to the same signature.
func tagsSig(wantTags []int) string {
	if wantTags == nil {
		return "*"
	}
	sorted := make([]int, len(wantTags))
	copy(sorted, wantTags)
	sort.Ints(sorted)
	var b []byte
	prev := -1
	for _, t := range sorted {
		if t == prev {
			continue
		}
		prev = t
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ',')
	}
	return string(b)
}

// cacheEntry is one decoded blob variant. The DecodedBatch is shared by
// every reader that hits the entry and must be treated as immutable.
type cacheEntry struct {
	bk    blobKey
	sig   string
	batch *DecodedBatch
	// hdr is the blob's own header (detached from the payload), so a hit
	// makes exactly the zone-skip and fold decisions the stored bytes
	// would have.
	hdr     blobHeader
	blobLen int64 // encoded size: the bytes a hit saves
	size    int64 // decoded memory footprint charged against the budget
	elem    *list.Element
}

// blobCache is a byte-budgeted LRU over decoded blobs. All methods are
// safe for concurrent use; the mutex is only ever held alone, so it has
// no ordering relationship with shard latches or tree locks. It counts
// into the store's live Stats (its BlobCache* fields); only the two
// gauges, curBytes and the LRU's length, live here, under mu.
type blobCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[blobKey]map[string]*cacheEntry
	// vers closes the stale-insert race: a walker step misses in get and
	// copies the record bytes under the owner's latch, which excludes the
	// key's writer, so the slot version get returned is the one the bytes
	// were written under. The decode happens after the latch is released;
	// put drops the insert when an invalidation bumped the slot since, so
	// a decode of the old blob can never be cached over the new one.
	vers [cacheVerSlots]uint64

	stats *Stats
}

func newBlobCache(maxBytes int64, stats *Stats) *blobCache {
	return &blobCache{
		stats:    stats,
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[blobKey]map[string]*cacheEntry),
	}
}

// get returns the cached decode of (bk, sig), promoting it in the LRU, or
// nil and the key's current version — the guard a later put of the
// caller's own decode must pass (see vers). Bytes saved are not credited
// here: a hit may still be zone-skipped by the caller, in which case the
// raw path would not have read the blob either — the caller credits
// served hits via noteSaved.
func (c *blobCache) get(bk blobKey, sig string) (*cacheEntry, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[bk][sig]
	if !ok {
		atomic.AddInt64(&c.stats.BlobCacheMisses, 1)
		return nil, c.vers[bk.slot()]
	}
	atomic.AddInt64(&c.stats.BlobCacheHits, 1)
	c.lru.MoveToFront(e.elem)
	return e, 0
}

// noteSaved credits the encoded bytes a served hit avoided re-reading.
// Called after the hit survived the zone-map skip check.
func (c *blobCache) noteSaved(n int64) {
	atomic.AddInt64(&c.stats.BlobCacheBytesSaved, n)
}

// put caches a decoded blob unless the key was invalidated since get
// returned ver. The batch becomes shared and must not be mutated.
func (c *blobCache) put(bk blobKey, sig string, ver uint64, batch *DecodedBatch, hdr blobHeader, blobLen int64) {
	size := decodedSize(batch, hdr)
	if size > c.maxBytes {
		return // larger than the whole budget: not cacheable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.vers[bk.slot()] != ver {
		return // raced with an invalidation; the decode may be stale
	}
	variants, ok := c.entries[bk]
	if !ok {
		variants = make(map[string]*cacheEntry, 1)
		c.entries[bk] = variants
	}
	if old, ok := variants[sig]; ok {
		c.removeLocked(old)
	}
	e := &cacheEntry{bk: bk, sig: sig, batch: batch, hdr: hdr, blobLen: blobLen, size: size}
	e.elem = c.lru.PushFront(e)
	variants[sig] = e
	c.curBytes += size
	for c.curBytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.removeLocked(victim)
		atomic.AddInt64(&c.stats.BlobCacheEvictions, 1)
	}
}

// invalidateKey drops every variant of a blob key and bumps its version
// slot so in-flight decodes of the old value cannot be inserted.
func (c *blobCache) invalidateKey(bk blobKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vers[bk.slot()]++
	atomic.AddInt64(&c.stats.BlobCacheInvalidations, 1)
	if variants, ok := c.entries[bk]; ok {
		for _, e := range variants {
			c.removeLocked(e)
		}
	}
}

// removeLocked unlinks an entry from the LRU and the variant map.
func (c *blobCache) removeLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	c.curBytes -= e.size
	if variants, ok := c.entries[e.bk]; ok {
		delete(variants, e.sig)
		if len(variants) == 0 {
			delete(c.entries, e.bk)
		}
	}
}

// decodedSize estimates the in-memory footprint of a cached decode.
func decodedSize(batch *DecodedBatch, hdr blobHeader) int64 {
	n := int64(len(batch.Timestamps))
	var cells int64
	for _, row := range batch.Rows {
		cells += int64(len(row))
	}
	const entryOverhead = 128 // entry struct, map cell, list element
	return entryOverhead + n*8 /* timestamps */ + int64(len(batch.Slots))*8 +
		cells*8 + n*24 /* row headers */ + int64(len(hdr.b))
}
