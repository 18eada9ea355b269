package tsstore

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"odh/internal/btree"
	"odh/internal/catalog"
	"odh/internal/compress"
	"odh/internal/keyenc"
	"odh/internal/metrics"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/walog"
)

// DefaultBatchSize is the number of points packed per ValueBlob when the
// caller does not configure b.
const DefaultBatchSize = 128

// Config tunes the store. The zero value gives defaults.
type Config struct {
	// BatchSize is b, the number of operational points packed into one
	// batch record (paper §2).
	BatchSize int
	// DisableCompression stores raw columns (compression ablation).
	DisableCompression bool
	// Log, when non-nil, records buffered points for bounded-loss recovery.
	Log *walog.Log
	// LenientScan makes scans quarantine unreadable batch records (skip
	// them and count Stats.CorruptBlobsSkipped) instead of aborting the
	// query. The default is strict: a corrupt blob fails the scan with the
	// underlying error so callers cannot silently miss data.
	LenientScan bool
	// BlobCacheBytes budgets the decoded-ValueBlob cache (decoded bytes
	// held). Zero disables caching: every scan decodes from the pagestore.
	BlobCacheBytes int64
	// SubBucketMs is the base width of the per-sub-bucket mini-summaries
	// written into per-source blobs (format flag 0x04): TIME_BUCKET
	// grids that are positive integral multiples of this width fold
	// straddling blobs without decoding. Zero picks DefaultSubBucketMs; a
	// negative width fails Open.
	SubBucketMs int64

	// Test-only overrides of the open MG rows per group before the oldest
	// flushes partially filled (default 4) and of the latch shard count
	// (default maxShards; 1 gives a single global lock).
	maxOpenMGRows int
	shards        int
}

// DefaultSubBucketMs is the sub-bucket base width when the caller does not
// configure one: one minute, the finest grid of the operational roll-up
// widths (1m/5m/1h) the historian workloads query.
const DefaultSubBucketMs = 60_000

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.maxOpenMGRows <= 0 {
		c.maxOpenMGRows = 4
	}
	if c.SubBucketMs == 0 {
		c.SubBucketMs = DefaultSubBucketMs
	}
	return c
}

// Stats counts store activity. It is the store's share of the
// historian's counters: odh.HistorianStats embeds it, and metrics.Walk
// names each field on STATS and in odh-cli. A Store holds one Stats as its
// live counters, allocated on its own so every field is 8-byte aligned:
// writers bump a field with atomic.AddInt64, and Store.Stats reads them
// all through metrics.Snapshot.
type Stats struct {
	PointsWritten  int64
	BatchesFlushed int64
	MGPartialRows  int64 // MG rows flushed before every member reported
	// CorruptBlobsSkipped counts batch records that lenient scans could
	// not read or decode and therefore quarantined.
	CorruptBlobsSkipped int64
	// ZoneSkips counts batch records that scans and aggregates never
	// decoded because their zone maps excluded every pushed tag range.
	ZoneSkips int64
	// ParallelScans counts aggregates that fanned parts onto the worker
	// pool; ParallelParts counts the parts they dispatched.
	ParallelScans int64
	ParallelParts int64
	// SummaryHits counts blob records an aggregate scan folded from their
	// header summary without decoding columns; BytesNotDecoded totals the
	// encoded blob bytes those folds avoided reading.
	SummaryHits     int64
	BytesNotDecoded int64
	// SubBucketFolds counts blob records that straddled the query's bucket
	// grid (or its window edges) and folded from per-sub-bucket
	// mini-summaries instead of a boundary decode;
	// SubBucketBytesNotDecoded totals the encoded bytes those folds
	// avoided reading.
	SubBucketFolds           int64
	SubBucketBytesNotDecoded int64
	// DecodedValues counts the timestamps plus tag values that scan and
	// aggregate payload decodes materialised: a window's whole segments,
	// not only its rows (cache hits decode nothing).
	DecodedValues int64
	// BytesNotRead totals the stored bytes of records scans and aggregates
	// kept that lay past what their decode reads — behind the last wanted
	// column — and so were never copied out of the page store.
	BytesNotRead int64
	// ColdCompactions counts hot records consumed by cold-tier passes;
	// StubTransitions counts records truncated to summary-only stubs;
	// TierBytesReclaimed is the net encoded bytes tier passes removed.
	ColdCompactions    int64
	StubTransitions    int64
	TierBytesReclaimed int64
	// The decoded-blob cache, all zero when it is off: lookups that hit
	// and missed, the encoded bytes served hits did not re-read (a hit then
	// zone-skipped saved nothing), entries evicted, keys invalidated by
	// writers, and the decoded bytes and entries held.
	BlobCacheHits          int64
	BlobCacheMisses        int64
	BlobCacheBytesSaved    int64
	BlobCacheEvictions     int64
	BlobCacheInvalidations int64
	BlobCacheSizeBytes     int64
	BlobCacheEntries       int64
}

// maxShards is the default and the largest latch shard count. Shards are
// hash buckets of owners, and a reader of one owner excludes the writers
// of every owner in its bucket for the length of a walker step, so the
// count is sized to keep unrelated owners apart, not to the core count.
const maxShards = 1024

// shard is one latch domain: owners hash here — RTS/IRTS sources by
// source id, MG groups by group id — and mu covers every home of its
// owners' rows: the ingest buffer and the owner's key ranges in the batch
// trees (see walk.go for the reader/writer rule), so writers of different
// owners never contend. The two maps are disjoint namespaces — a source
// id colliding numerically with a group id is harmless. The B-trees, the
// blob cache and the catalog have their own internal locks and never call
// back into the shard, so holding a shard lock across a rewrite cannot
// deadlock.
type shard struct {
	mu      sync.RWMutex
	buffers map[int64]*sourceBuffer
	groups  map[int64]*groupBuffer
}

// Store is the ODH storage component over one page store. Writes for
// different sources proceed in parallel on separate shards; writes for
// the same source (or MG group) serialize on its shard, preserving
// per-source arrival order.
type Store struct {
	cfg  Config
	page *pagestore.Store
	cat  *catalog.Catalog

	rts, irts, mg *btree.Tree

	shards    []*shard
	shardMask uint32

	// logMu orders WAL appends against log recycling when a recovery log
	// is attached: writers hold it shared across append + buffer insert,
	// Flush holds it exclusively across drain + commit + reset. Without it
	// a flush racing a writer could truncate an appended record whose point
	// had not yet reached a buffer — an acked write lost without any crash.
	logMu sync.RWMutex

	// stats is the live record of the activity counters, kept outside the
	// shards: scans count without knowing (or locking) a shard, and Stats
	// locks none. See Stats for how it is written and read.
	stats *Stats

	// cache holds decoded ValueBlobs for the read path; nil when
	// Config.BlobCacheBytes is zero.
	cache *blobCache
}

// shardCount picks the latch shard count: maxShards, or the override
// rounded up to a power of two and capped at maxShards.
func shardCount(override int) int {
	n := override
	if n <= 0 {
		n = maxShards
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// ownerHash spreads owner ids (Fibonacci hashing).
func ownerHash(owner int64) uint32 {
	return uint32((uint64(owner) * 0x9E3779B97F4A7C15) >> 32)
}

// shardFor returns the shard of an owner.
func (s *Store) shardFor(owner int64) *shard {
	return s.shards[ownerHash(owner)&s.shardMask]
}

// sourceBuffer accumulates points for one RTS/IRTS source in two arrays
// allocated at its first point and reused by every batch after it: ts holds
// the timestamps, vals the values, row i at vals[i×tags:(i+1)×tags]. A
// buffered point costs its timestamp and values and no pointer. Nothing
// keeps a window into vals past the call that made it — the flush encodes
// its run and the dirty read (walker.addBuffered) copies its rows under the
// latch — so a buffer a failed flush left full may outgrow its arrays.
type sourceBuffer struct {
	ds     *model.DataSource
	schema *model.SchemaType
	ts     []int64
	vals   []float64
	last   int64 // the last buffered point's TS, kept here to spare a read of ts per write
}

// row returns buffered row i's values, a capacity-limited window of the
// slab valid until the buffer next changes.
func (b *sourceBuffer) row(i int) []float64 {
	n := len(b.schema.Tags)
	return b.vals[i*n : (i+1)*n : (i+1)*n]
}

// groupBuffer holds the open rows of one MG group. A row opens at its first
// sample, is keyed at that timestamp and spans the group's window
// (catalog.Group): a sample joins the oldest open row that spans it and
// does not hold its member yet, else opens a row of its own. So a jittered
// low-frequency member that samples twice inside one window fills the next
// row, and every row stays within [key, key+window) — the reach a reader's
// lookback assumes. Each member's exact timestamp is kept as an offset
// from the key. A sample takes its source's stored slot. slots and live
// are the length of the group's member table and its members that are not
// holes, as of the newest slot the buffer has met; a row is complete once
// live members have reported.
type groupBuffer struct {
	group       int64
	schema      *model.SchemaType
	slots, live int
	windowMs    int64
	rows        []*mgRow // open rows, oldest first
}

type mgRow struct {
	key      int64         // the first sample's timestamp
	samples  []model.Point // per slot: the member's sample; nil Values when it has none
	vals     []float64     // the samples' values, one slab a row; a sample's Values is a window of it
	reported int
}

// spans reports whether a sample at ts may join the row.
func (r *mgRow) spans(ts, window int64) bool {
	return ts >= r.key && uint64(ts-r.key) < uint64(window)
}

// fit grows the row's slots to a membership of n.
func (r *mgRow) fit(n int) {
	if len(r.samples) < n {
		r.samples = append(r.samples, make([]model.Point, n-len(r.samples))...)
	}
}

// Open opens the batch stores inside store using cat for metadata. With a
// recovery log attached it then replays the log: the points a crash left
// buffered re-enter the buffers, minus the ones a checkpoint had already
// committed (see Flush).
func Open(store *pagestore.Store, cat *catalog.Catalog, cfg Config) (*Store, error) {
	if cfg.SubBucketMs < 0 {
		return nil, fmt.Errorf("tsstore: Config.SubBucketMs = %d: a sub-bucket base width must be positive (0 picks the default)", cfg.SubBucketMs)
	}
	s := &Store{
		cfg:   cfg.withDefaults(),
		page:  store,
		cat:   cat,
		stats: new(Stats),
	}
	n := shardCount(s.cfg.shards)
	s.shards = make([]*shard, n)
	s.shardMask = uint32(n - 1)
	for i := range s.shards {
		s.shards[i] = &shard{
			buffers: make(map[int64]*sourceBuffer),
			groups:  make(map[int64]*groupBuffer),
		}
	}
	var err error
	if s.rts, err = btree.Open(store, "ts.rts"); err != nil {
		return nil, err
	}
	if s.irts, err = btree.Open(store, "ts.irts"); err != nil {
		return nil, err
	}
	if s.mg, err = btree.Open(store, "ts.mg"); err != nil {
		return nil, err
	}
	if s.cfg.BlobCacheBytes > 0 {
		s.cache = newBlobCache(s.cfg.BlobCacheBytes, s.stats)
	}
	if s.cfg.Log != nil {
		// Unlogged: the records are in the log already, and appending them
		// again would apply them twice after a second crash before the next
		// checkpoint.
		if _, _, err := s.replay(s.cfg.Log, false); err != nil {
			return nil, fmt.Errorf("tsstore: recovery: %w", err)
		}
	}
	return s, nil
}

// Catalog returns the metadata catalog the store writes through.
func (s *Store) Catalog() *catalog.Catalog { return s.cat }

// Stats returns a snapshot of the activity counters. The cache's two
// gauges are read under its lock.
func (s *Store) Stats() Stats {
	st := metrics.Snapshot(s.stats)
	if c := s.cache; c != nil {
		c.mu.Lock()
		st.BlobCacheSizeBytes, st.BlobCacheEntries = c.curBytes, int64(c.lru.Len())
		c.mu.Unlock()
	}
	return st
}

// SubBucketMs returns the resolved sub-bucket base width, always positive.
func (s *Store) SubBucketMs() int64 { return s.cfg.SubBucketMs }

// encodeOptsFor builds the blob codec options for a schema; nil encodes
// every tag losslessly.
func (s *Store) encodeOptsFor(schema *model.SchemaType) encodeOpts {
	opts := encodeOpts{
		disable:     s.cfg.DisableCompression,
		subBucketMs: s.cfg.SubBucketMs,
	}
	if schema != nil {
		opts.policies = make([]compress.Policy, len(schema.Tags))
		for i, t := range schema.Tags {
			opts.policies[i] = t.Compression
		}
	}
	return opts
}

// writeResolved routes a validated point into its owner's shard: the
// owner of an MG member's rows is its group (every member of an MG group
// serializes on one shard, which the windowed row merge requires), of any
// other source's the source itself.
func (s *Store) writeResolved(l *catalog.Lookup, p model.Point) error {
	if l.Structure == model.MG {
		sh := s.shardFor(l.Source.Group)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return s.writeMG(sh, l.Source, l.Schema, p)
	}
	sh := s.shardFor(l.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.writeBuffered(sh, l, p)
}

// Write ingests one operational record through the writer API. It is the
// paper's non-transactional insert path: the point lands in an in-memory
// buffer and becomes a persisted batch when b points accumulate. Writes
// for different sources proceed in parallel.
func (s *Store) Write(p model.Point) error {
	return s.ingest([]model.Point{p}, nil, true)
}

// WriteBatch ingests a slice of points in one pass (see ingest).
func (s *Store) WriteBatch(points []model.Point) error {
	return s.ingest(points, nil, true)
}

// WriteFrame is WriteBatch of a frame's points, logged as the frame's bytes
// (one record: past walog.MaxRecord it fails, nothing buffered).
func (s *Store) WriteFrame(f Frame) error {
	return s.ingest(f.points, f.raw, true)
}

// WriteBatchParallel is WriteBatch; workers is ignored. It remains only
// because the benchmark harness calls it by this name — there is one
// ingest path, and this is not a second one.
func (s *Store) WriteBatchParallel(points []model.Point, workers int) error {
	return s.WriteBatch(points)
}

// ingest is the one write path, one sequential pass per frame. The whole
// frame is validated first, its sources and schemas resolved under one
// catalog read lock; when logged, it is appended to the recovery log as one
// frame record (raw, when the caller has its bytes) before any point
// enters a buffer — all under a shared hold of logMu, so no checkpoint
// recycles a record whose point is not buffered yet. A frame that fails
// validation logs, buffers and counts nothing; one that fails later (a
// flush's put) may be partially buffered, the non-transactional contract
// of the writer API.
func (s *Store) ingest(points []model.Point, raw []byte, logged bool) error {
	ls := make([]catalog.Lookup, len(points))
	for i, p := range points {
		ls[i].ID = p.Source
	}
	bad := s.cat.Resolve(ls)
	for i, p := range points[:bad] {
		if tags := len(ls[i].Schema.Tags); len(p.Values) != tags {
			return fmt.Errorf("tsstore: source %d: %d values for %d tags", p.Source, len(p.Values), tags)
		}
	}
	if bad < len(points) {
		l := ls[bad]
		if l.Source == nil {
			return fmt.Errorf("tsstore: unknown data source %d", l.ID)
		}
		return fmt.Errorf("tsstore: source %d has unknown schema %d", l.ID, l.Source.SchemaID)
	}
	if logged && s.cfg.Log != nil {
		s.logMu.RLock()
		defer s.logMu.RUnlock()
		var err error
		if raw != nil {
			err = s.cfg.Log.AppendKind(logFrame, [][]byte{raw})
		} else {
			err = LogFrame(s.cfg.Log, points)
		}
		if err != nil {
			return err
		}
	}
	atomic.AddInt64(&s.stats.PointsWritten, int64(len(points)))
	for i, p := range points {
		if err := s.writeResolved(&ls[i], p); err != nil {
			return err
		}
	}
	return nil
}

// writeBuffered handles the RTS/IRTS per-source path. Caller holds sh.mu.
func (s *Store) writeBuffered(sh *shard, l *catalog.Lookup, p model.Point) error {
	buf, ok := sh.buffers[l.ID]
	if !ok {
		buf = &sourceBuffer{
			ds:     l.Source,
			schema: l.Schema,
			ts:     make([]int64, 0, s.cfg.BatchSize),
			vals:   make([]float64, 0, s.cfg.BatchSize*len(l.Schema.Tags)),
		}
		sh.buffers[l.ID] = buf
	}
	// A gap or drift breaks an RTS run's implicit timestamps, and an
	// out-of-order point an IRTS blob's monotonic ones: either closes the
	// batch, and the point starts a new run.
	if len(buf.ts) > 0 && (l.Structure == model.RTS && p.TS != buf.last+l.Source.IntervalMs || l.Structure == model.IRTS && p.TS < buf.last) {
		if err := s.flushSourceLocked(buf); err != nil {
			return err
		}
	}
	buf.ts = append(buf.ts, p.TS)
	buf.vals = append(buf.vals, p.Values...)
	buf.last = p.TS
	if len(buf.ts) >= s.cfg.BatchSize {
		return s.flushSourceLocked(buf)
	}
	return nil
}

// writeMG handles the MG per-group path. Caller holds sh.mu.
func (s *Store) writeMG(sh *shard, ds *model.DataSource, schema *model.SchemaType, p model.Point) error {
	gb, ok := sh.groups[ds.Group]
	if !ok {
		gb = &groupBuffer{group: ds.Group, schema: schema}
		sh.groups[ds.Group] = gb
	}
	slot := ds.GroupSlot
	if slot >= gb.slots {
		// A member registered after the buffer last read the table.
		g := s.cat.Group(ds.Group)
		if slot >= len(g.Members) {
			return fmt.Errorf("tsstore: source %d not in group %d", ds.ID, ds.Group)
		}
		gb.slots, gb.live, gb.windowMs = len(g.Members), g.Live, g.WindowMs
	}
	var row *mgRow
	for _, r := range gb.rows {
		if r.spans(p.TS, gb.windowMs) && (slot >= len(r.samples) || r.samples[slot].Values == nil) {
			row = r
			break
		}
	}
	if row == nil {
		for _, r := range gb.rows {
			if r.key == p.TS {
				// A row of its own would take the key of an open row that
				// holds the member already: a repeat of a timestamp the member
				// has open. It cannot share an MG record (one point per member
				// per record), so it goes straight to the member's per-source
				// historical structure, which every scan merges with MG.
				return s.putRunLocked(ds, schema, []model.Point{p})
			}
		}
		row = &mgRow{key: p.TS, vals: make([]float64, 0, gb.live*len(schema.Tags))}
		gb.rows = append(gb.rows, row)
	}
	row.fit(gb.slots)
	row.reported++
	n := len(row.vals)
	row.vals = append(row.vals, p.Values...)
	row.samples[slot] = model.Point{Source: p.Source, TS: p.TS, Values: row.vals[n:len(row.vals):len(row.vals)]}
	if row.reported >= gb.live {
		return s.flushMGRowLocked(gb, row)
	}
	if len(gb.rows) > s.cfg.maxOpenMGRows {
		atomic.AddInt64(&s.stats.MGPartialRows, 1)
		return s.flushMGRowLocked(gb, gb.rows[0])
	}
	return nil
}

// flushSourceLocked persists and clears one source buffer, its run built
// in a slice no buffer keeps. Caller holds the buffer's shard lock.
func (s *Store) flushSourceLocked(buf *sourceBuffer) error {
	if len(buf.ts) == 0 {
		return nil
	}
	run := make([]model.Point, len(buf.ts))
	for i, ts := range buf.ts {
		run[i] = model.Point{Source: buf.ds.ID, TS: ts, Values: buf.row(i)}
	}
	if err := s.putRunLocked(buf.ds, buf.schema, run); err != nil {
		return err
	}
	atomic.AddInt64(&s.stats.BatchesFlushed, 1)
	buf.ts, buf.vals = buf.ts[:0], buf.vals[:0]
	return nil
}

// putRunLocked stores one timestamp-ordered run of a source's points as a
// single record of its per-source tree. Caller holds the source's latch.
func (s *Store) putRunLocked(ds *model.DataSource, schema *model.SchemaType, pts []model.Point) error {
	p, err := s.planRun(ds, schema, pts)
	if err != nil {
		return err
	}
	return s.apply([]*rangePlan{p}, nil, false)
}

// planRun plans a run as one record of its source's range, keyed at its
// first timestamp, where a record may sit already — after an out-of-order
// run, a regular source's re-send, or an MG member's displaced or repeated
// sample — so it is put under the collision rule, which loses no row.
func (s *Store) planRun(ds *model.DataSource, schema *model.SchemaType, pts []model.Point) (*rangePlan, error) {
	p := s.newPlan(s.treeFor(ds.HistoricalStructure()), ds.ID, ds, schema)
	// The catalog's bounds for the source's per-source records answer the
	// common case — a run newer than anything stored has no record at its
	// key — without a lookup in the tree, whose lock every scan of the
	// structure shares: rewriteLocked keeps LastTS at or above every
	// record's last timestamp, hence above every key. Statistics that count
	// no batch (none stored yet, or the entry was lost or unreadable) vouch
	// for nothing, and the tree is asked.
	if st := s.cat.Stats(ds.ID); !st.Unknown && st.BatchCount > 0 && pts[0].TS > st.LastTS {
		p.lo, p.hi = pts[0].TS, math.MaxInt64
	}
	return p, p.put(stored{ts: pts[0].TS, blob: encodeRun(ds, schema, pts, s.encodeOptsFor(schema))}, pts)
}

// flushMGRowLocked persists and removes one open group row, put under the
// collision rule: a row keyed where one was flushed before (by the open-row
// cap, or before a member's repeat) merges with it; a failed put leaves the
// row buffered. Caller holds the group's shard lock.
func (s *Store) flushMGRowLocked(gb *groupBuffer, row *mgRow) error {
	mg := s.newPlan(s.mg, gb.group, nil, gb.schema)
	if err := mg.put(stored{ts: row.key, blob: encodeRow(row.key, row.samples, gb.schema, s.encodeOptsFor(gb.schema))}, row.samples); err != nil {
		return err
	}
	if err := s.apply(append(mg.spilled, mg), nil, false); err != nil {
		return err
	}
	gb.rows = slices.DeleteFunc(gb.rows, func(r *mgRow) bool { return r == row })
	atomic.AddInt64(&s.stats.BatchesFlushed, 1)
	return nil
}

// Flush is the checkpoint, the only one: it persists every open buffer
// (partially filled batches included), syncs the recovery log, commits the
// page store and only then recycles the log — the one place in the tree a
// recovery log is reset. A crash or a failed step anywhere in that order
// leaves every acked point in the committed pages or in the still-intact
// log, so when Flush returns nil everything acked before it is in
// committed pages. It quiesces ingest by taking every shard lock in index
// order for the duration: recycling the log is only safe while no writer
// can slip a point into a buffer after its WAL record was appended — that
// record would be truncated away while the point is still volatile.
// Writers resume as soon as Flush returns.
func (s *Store) Flush() error {
	if s.cfg.Log != nil {
		s.logMu.Lock()
		defer s.logMu.Unlock()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}()
	for _, sh := range s.shards {
		for _, buf := range sh.buffers {
			if err := s.flushSourceLocked(buf); err != nil {
				return err
			}
		}
		for _, gb := range sh.groups {
			for len(gb.rows) > 0 {
				if err := s.flushMGRowLocked(gb, gb.rows[0]); err != nil {
					return err
				}
			}
		}
	}
	if s.cfg.Log != nil {
		if err := s.cfg.Log.Sync(); err != nil {
			return err
		}
	}
	if err := s.page.Flush(); err != nil {
		return err
	}
	if s.cfg.Log != nil {
		return s.cfg.Log.Reset()
	}
	return nil
}

// Replay writes the point records of l the store does not already hold
// through the normal write path — so what it applies is itself covered by
// the recovery log — and skips the rest. It is how a cluster catches a copy
// up from its hinted-handoff log: a write that timed out at the coordinator
// may have landed anyway. l is not modified.
func (s *Store) Replay(l *walog.Log) (applied, skipped int, err error) {
	return s.replay(l, true)
}

// replay ingests the points of a log's records, skipping the ones the
// store already held when the replay began. Crash recovery (Open) needs it
// because Flush commits the page store before recycling the log, so a crash
// between the two leaves records that are already durable.
//
// Asking per point whether one at (source, ts) is visible would not do:
// scans dirty-read the buffer the replay itself is filling, and an
// irregular source may log several samples at one timestamp, so every
// sample after the first would pass for a duplicate of it and be dropped.
// Instead the first point at a (source, ts) counts the points visible
// there — the replay has written none yet — and only that many of the
// log's points at that key are skipped. Nothing but the replay may write
// to the store until it returns. Returns the points applied and skipped.
// A source the catalog does not know counts nothing, as any scan of it
// reads nothing, so its point reaches ingest, whose validation fails the
// replay with the unknown-source error.
//
// The survivors are ingested in batches, a record's together and those of
// small records (a hint log is one-point frames) gathered up to
// replayBatch, so a replay costs one ingest — when logged, one group
// commit — per batch and not per point. The count of a key is unaffected:
// it is taken once, before any survivor at that key exists, and a write at
// another key cannot change it.
//
// Memory is one small map entry per distinct (source, ts) in the log, so
// it is bounded by the log's length: the recovery log is recycled at
// every Flush, and a copy's hint log is itself held in memory, at more
// bytes per record than its entry here. An entry cannot be dropped when
// its source's timestamps move on — arrival order is not time order, and
// a late record at a forgotten key would count the replay's own write.
func (s *Store) replay(l *walog.Log, logged bool) (applied, skipped int, err error) {
	const replayBatch = 4096
	held := make(map[[2]int64]int) // (source, ts) -> held points no record has matched yet
	var pending []model.Point
	flush := func() error {
		err := s.ingest(pending, nil, logged)
		pending = pending[:0]
		return err
	}
	err = l.Replay(func(kind byte, payload []byte) error {
		points, derr := decodeLogRecord(kind, payload)
		if derr != nil {
			return derr
		}
		for _, p := range points {
			key := [2]int64{p.Source, p.TS}
			n, seen := held[key]
			if !seen {
				it, serr := s.HistoricalScan(p.Source, p.TS, p.TS+1, nil)
				if serr != nil {
					return serr
				}
				for _, ok := it.Next(); ok; _, ok = it.Next() {
					n++
				}
				if serr = it.Err(); serr != nil {
					return serr
				}
			}
			if n > 0 {
				held[key] = n - 1
				skipped++
				continue
			}
			held[key] = 0
			applied++
			pending = append(pending, p)
		}
		if len(pending) >= replayBatch {
			return flush()
		}
		return nil
	})
	if err == nil && len(pending) > 0 {
		err = flush()
	}
	return applied, skipped, err
}

// BlobRef identifies one batch record for integrity reporting.
type BlobRef struct {
	Tree   string // "ts.rts", "ts.irts", or "ts.mg"
	Source int64  // source id (group id for MG records)
	TS     int64  // record base timestamp
}

func (r BlobRef) String() string {
	return fmt.Sprintf("%s source=%d ts=%d", r.Tree, r.Source, r.TS)
}

// VerifyBlobs decodes every persisted batch record in the three trees and
// reports the ones that fail — the blob-level half of fsck (page- and
// tree-level checks live in pagestore.VerifyPages and btree.Check). It
// also holds every per-source record against what a scan's lookback
// trusts, its home's span bounds (model.SourceStats.Covers): stale names,
// once per home, the first record they do not account for — a window just
// past such a record's key would silently miss its rows — or whose home's
// statistics are Unknown. UpgradeBlobs repairs both. It keeps going past
// corrupt records; only a broken tree walk aborts.
func (s *Store) VerifyBlobs() (checked int, corrupt, stale []BlobRef, err error) {
	trees := []struct {
		name string
		t    *btree.Tree
	}{{"ts.rts", s.rts}, {"ts.irts", s.irts}, {"ts.mg", s.mg}}
	for _, tr := range trees {
		cur := tr.t.First()
		for cur.Valid() {
			src, ts, kerr := keyenc.DecodeSourceTime(cur.Key())
			checked++
			blob, verr := cur.Value()
			ref := BlobRef{Tree: tr.name, Source: src, TS: ts}
			switch n := len(stale); {
			case kerr != nil || verr != nil || !blobIntact(blob, ts):
				corrupt = append(corrupt, ref)
			case tr.t == s.mg || (n > 0 && stale[n-1].Tree == ref.Tree && stale[n-1].Source == src):
				// An MG record's reach is its window; or the home is named already.
			default:
				_, _, last, _ := blobSpan(stored{ts: ts, blob: blob})
				if st := s.cat.Stats(src); st.Unknown || !st.Covers(ts, last, BlobTier(blob) == TierHot) {
					stale = append(stale, ref)
				}
			}
			cur.Next()
		}
		if cerr := cur.Err(); cerr != nil {
			return checked, corrupt, stale, cerr
		}
	}
	return checked, corrupt, stale, nil
}

// HoleRows names, once per MG group, the first record holding rows at a
// slot no stored source holds — a hole of the group's member table, or
// past its end: rows every read drops. A record that does not read is
// VerifyBlobs' to name.
func (s *Store) HoleRows() ([]BlobRef, error) {
	var holes []BlobRef
	cur := s.mg.First()
	for ; cur.Valid(); cur.Next() {
		group, ts, err := keyenc.DecodeSourceTime(cur.Key())
		if err != nil || len(holes) > 0 && holes[len(holes)-1].Source == group {
			continue
		}
		blob, err := cur.Value()
		if err != nil {
			continue
		}
		h, _ := parseBlobHeader(blob)
		g := s.cat.Group(group)
		for slot := range h.count {
			if g.Member(slot) == nil && !h.lacksMember(slot) {
				holes = append(holes, BlobRef{Tree: "ts.mg", Source: group, TS: ts})
				break
			}
		}
	}
	return holes, cur.Err()
}

// blobIntact is the per-record check of VerifyBlobs. Every record of a
// served store carries a header summary — one without is a pre-summary
// record, which only the upgrade reads — and a summary that disagrees with
// its own columns would make pushdown answers drift from decode answers,
// so it fails even though the rows themselves are readable; same one level
// down for a sub-bucket block. A stub's remaining contract is its header:
// the payload was dropped by tier policy, so only the summary (and the
// sub-bucket block when it claims one) must read.
func blobIntact(blob []byte, ts int64) bool {
	h, _ := parseBlobHeader(blob)
	sum := h.summary(ts)
	if sum == nil {
		return false
	}
	sub := h.subSummaries(sum)
	if h.subOff != 0 && sub == nil {
		return false
	}
	if h.tier() == TierStub {
		return true
	}
	batch, err := h.decodeAll(ts, nil)
	return err == nil && summaryMatches(sum, batch) && (sub == nil || subSummariesMatch(sub, batch, h.ntags))
}

// TreeSizes reports entry counts of the three batch trees (for tests and
// the storage-cost experiment).
func (s *Store) TreeSizes() (rts, irts, mg uint64) {
	return s.rts.Count(), s.irts.Count(), s.mg.Count()
}

// BlobBytesTotal reports total persisted ValueBlob bytes across structures.
func (s *Store) BlobBytesTotal() uint64 {
	return s.rts.ValueBytes() + s.irts.ValueBytes() + s.mg.ValueBytes()
}
