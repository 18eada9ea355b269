// Package odh is a Go reproduction of the next-generation Operational
// Data Historian from "The Next Generation Operational Data Historian for
// IoT Based on Informix" (Huang et al., SIGMOD 2014).
//
// A Historian stores high-volume operational (time-series) data in the
// paper's three batch structures — RTS for regular high-frequency sources,
// IRTS for irregular high-frequency sources, and MG for massive fleets of
// low-frequency sources — compresses tag values with a variability-aware
// strategy, and exposes everything (operational virtual tables and plain
// relational tables alike) through one SQL interface with a cost-based
// optimizer whose cost unit is expected ValueBlob bytes.
//
// Quick start:
//
//	h, _ := odh.Open("", odh.Options{}) // in-memory
//	schema, _ := h.CreateSchema(odh.SchemaType{
//		Name: "environ",
//		Tags: []odh.TagDef{{Name: "temperature"}, {Name: "wind"}},
//	})
//	h.CreateVirtualTable("environ_data_v", "environ")
//	src, _ := h.RegisterSource(odh.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 1000})
//	w := h.Writer()
//	w.WritePoint(src.ID, ts, 21.5, 3.2)
//	w.Flush()
//	res, _ := h.Query("SELECT timestamp, temperature FROM environ_data_v WHERE id = 1")
package odh

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"odh/internal/catalog"
	"odh/internal/compress"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/relational"
	"odh/internal/sqlexec"
	"odh/internal/tsstore"
	"odh/internal/walog"
)

// Re-exported model types; these are the vocabulary of the public API.
type (
	// Point is one operational record (timestamp, id, tag values).
	Point = model.Point
	// SchemaType describes one class of data sources; it becomes a
	// virtual table (id, timestamp, tags...).
	SchemaType = model.SchemaType
	// TagDef describes one measurement attribute.
	TagDef = model.TagDef
	// DataSource describes one sensor or device.
	DataSource = model.DataSource
	// CompressionPolicy configures per-tag compression (zero = lossless).
	CompressionPolicy = compress.Policy
	// SourceStats are the catalog's per-source statistics.
	SourceStats = model.SourceStats
	// Value is one SQL value. Value.AppendText appends the rendering
	// String returns without allocating.
	Value = relational.Value
	// Row is one SQL result row. A Row from Result.Next is lent: it is
	// valid until the next call to Next, which overwrites it in place;
	// copy it (slices.Clone) to keep it. Rows from FetchAll are the
	// caller's.
	Row = sqlexec.Row
	// Result is a SQL statement outcome: pull lent rows with Next, or
	// owned rows with FetchAll.
	Result = sqlexec.Result
	// TierPolicy ages a schema's batch records through the storage tiers
	// (hot → cold → summary-only stub); see Historian.TierSchema.
	TierPolicy = tsstore.TierPolicy
	// MaintenanceResult summarizes one maintenance pass (TierSchema,
	// UpgradeBlobs): records read, deleted, rewritten, stubbed and dropped,
	// bytes before and after, statistics re-derived.
	MaintenanceResult = tsstore.MaintenanceResult
	// TierStats is a census of persisted batch records by tier.
	TierStats = tsstore.TierStats
	// StubbedRangeError is the typed error a raw-row scan returns when it
	// touches a range whose rows were dropped by tier policy.
	StubbedRangeError = tsstore.StubbedRangeError
)

// ErrStubbed matches (via errors.Is) every error caused by scanning rows
// that tier policy reduced to summary-only stubs. Aggregate queries over
// the same range keep answering from the stub headers.
var ErrStubbed = tsstore.ErrStubbedBlob

// ErrNeedsUpgrade matches (via errors.Is) Open's error for a store written
// before the current ValueBlob format marker — unmarked, or marked with an
// older format — whose records may be of a format a served store no longer
// reads: Upgrade (odh-cli -dir DIR upgrade) it.
var ErrNeedsUpgrade = errors.New("odh: the store predates the current ValueBlob format marker")

// NullValue is the NULL tag value for Point.Values.
var NullValue = model.NullValue

// IsNull reports whether a tag value is NULL.
func IsNull(v float64) bool { return model.IsNull(v) }

// Options configures a Historian.
type Options struct {
	// BatchSize is b, the points packed per ValueBlob (default 128).
	BatchSize int
	// GroupSize is the MG group capacity (default: BatchSize).
	GroupSize int
	// PoolPages sizes the buffer pool in 4 KiB pages (default 4096).
	PoolPages int
	// EnableRecoveryLog attaches a bounded-loss ingest log (directory
	// stores only; ignored for in-memory historians).
	EnableRecoveryLog bool
	// DisableCompression stores raw tag columns (ablation).
	DisableCompression bool
	// Backing overrides the page-store file (crash tests inject fault
	// wrappers here); when set it wins over dir's page file. The recovery
	// log still lives in dir when enabled. Upgrade refuses it.
	Backing pagestore.File
	// Recovery selects how reads treat corrupt ValueBlobs: fail fast
	// (the default) or quarantine-and-continue (RecoverLenient).
	Recovery RecoveryMode
	// WALSyncOnAppend fsyncs the recovery log after every append
	// (zero loss, slowest); WALSyncEvery > 0 fsyncs every N appends
	// instead. An append is one ingest call — a Write, a WriteBatch, a
	// wire BATCH frame — logged as one record whatever its point count,
	// so WALSyncEvery: N bounds a power loss to the last N acked calls.
	// With neither set the log syncs only at checkpoints (Flush), and a
	// power loss costs what the OS had not written out since the last
	// one. Concurrent appends are group-committed, so the fsync cost
	// amortizes across writers.
	WALSyncOnAppend bool
	WALSyncEvery    int
	// WALBacking overrides the recovery log's backing file (crash tests
	// inject fault wrappers here); it wins over dir's WAL file and
	// implies EnableRecoveryLog.
	WALBacking walog.File
	// QueryWorkers caps the parallel degree of pushed-down aggregates. The
	// optimizer picks each aggregate's degree from its blob-bytes cost
	// estimate, up to this cap. Zero (or 1) keeps them serial; row scans
	// always are.
	QueryWorkers int
	// BlobCacheBytes budgets the decoded-ValueBlob cache shared by all
	// scans (approximate decoded bytes held). Repeated queries over the
	// same history then skip the pagestore read and the column decode —
	// the paper's dominant row-assembly overhead. Zero disables caching.
	BlobCacheBytes int64
	// DisableAggPushdown turns off rewriting COUNT/SUM/AVG/MIN/MAX (and
	// TIME_BUCKET/id group-bys) over virtual tables into ValueBlob header
	// summary folds, forcing the decode-and-group plan (ablation and
	// drift debugging; the rewrite is on by default).
	DisableAggPushdown bool
	// SubBucketMs is the base width (ms) of the per-sub-bucket
	// mini-summaries written into ValueBlob headers: TIME_BUCKET queries
	// whose width is a positive integral multiple of this base fold blobs
	// that straddle bucket edges without decoding them. Zero picks the
	// default (60 000 ms — one minute); a negative width fails Open.
	SubBucketMs int64
}

// Historian is an operational data historian instance.
type Historian struct {
	dir    string
	page   *pagestore.Store
	cat    *catalog.Catalog
	ts     *tsstore.Store
	rel    *relational.DB
	engine *sqlexec.Engine
	wal    *walog.Log
	closed atomic.Bool
}

// Open opens (creating if necessary) a historian. dir == "" opens an
// in-memory historian for tests and benchmarks; otherwise the directory
// holds the page store file and optional recovery log. A store not marked
// with the current ValueBlob format — written before the marker, or marked
// with an older format — is refused with ErrNeedsUpgrade, its files
// untouched.
func Open(dir string, opts Options) (*Historian, error) {
	return open(dir, opts, true)
}

// Upgrade brings the store in dir, unmarked or marked with an older
// ValueBlob format, to the format a served store holds and marks it, for
// Open to accept; nothing may be serving it. On a copy of the page file, opened as
// Open opens a store minus the marker check and the recovery log (the
// first Open replays it), it runs the UpgradeBlobs pass, requires
// VerifyIntegrity to be clean — else the report is the error — marks and
// checkpoints the copy, and only then renames it over the page file: a
// failure or crash at any step leaves the store as it was. On a store
// marked with the current format it rewrites nothing. Under RecoverLenient corrupt blobs alone do
// not stop the mark: lenient scans skip them, fsck names them.
func Upgrade(dir string, opts Options) (res MaintenanceResult, err error) {
	if dir == "" || opts.Backing != nil {
		return res, errors.New("odh: Upgrade works on a store directory")
	}
	pages := filepath.Join(dir, "odh.pages")
	scratch := pages + ".upgrade"
	if err = copyFile(scratch, pages); err != nil {
		return res, fmt.Errorf("odh: upgrade: %w", err)
	}
	defer func() {
		if err != nil {
			os.Remove(scratch)
		}
	}()
	if opts.Backing, err = openPageFile(scratch); err != nil {
		return res, err
	}
	opts.EnableRecoveryLog, opts.WALBacking = false, nil
	h, err := open(dir, opts, false)
	if err != nil {
		opts.Backing.Close()
		return res, err
	}
	var rep *IntegrityReport
	if res, err = h.ts.UpgradeBlobs(); err == nil {
		rep, err = h.VerifyIntegrity()
	}
	if err == nil && !rep.OK() && !(opts.Recovery == RecoverLenient && len(rep.CorruptPages)+len(rep.CorruptTrees)+len(rep.StaleStats) == 0) {
		err = fmt.Errorf("odh: upgrade: the store stays unmarked: it failed verification (corrupt blobs alone do not stop a lenient upgrade, odh-cli -recover):\n%s", rep)
	}
	if err == nil {
		err = h.cat.MarkFormat(tsstore.BlobFormat)
	}
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(scratch, pages)
	}
	var d *os.File
	if err == nil {
		d, err = os.Open(dir) // the rename is durable once the directory is
	}
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return res, err
}

// copyFile replaces dst with a copy of src.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err == nil {
		_, err = io.Copy(out, in)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// openPageFile opens a directory store's page file; tests wrap what it
// returns to inject I/O faults.
var openPageFile = func(path string) (pagestore.File, error) { return pagestore.OpenOSFile(path) }

// open is the one assembly of a historian; checkFormat refuses a store
// that is not marked with the current ValueBlob format.
func open(dir string, opts Options, checkFormat bool) (*Historian, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = tsstore.DefaultBatchSize
	}
	if opts.GroupSize <= 0 {
		opts.GroupSize = opts.BatchSize
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 4096
	}
	var file pagestore.File
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("odh: create dir: %w", err)
		}
	}
	switch {
	case opts.Backing != nil:
		file = opts.Backing
	case dir == "":
		file = pagestore.NewMemFile()
	default:
		f, err := openPageFile(filepath.Join(dir, "odh.pages"))
		if err != nil {
			return nil, err
		}
		file = f
	}
	page, err := pagestore.Open(file, pagestore.Options{PoolPages: opts.PoolPages})
	if err != nil {
		return nil, err
	}
	h := &Historian{
		dir:  dir,
		page: page,
	}
	// A failed open releases what it acquired: the page file and the
	// recovery log's writer goroutine.
	fail := func(err error) (*Historian, error) {
		h.release()
		return nil, err
	}
	openCatalog := catalog.Open
	if opts.Recovery == RecoverLenient {
		openCatalog = catalog.OpenLenient
	}
	if h.cat, err = openCatalog(page, opts.GroupSize); err != nil {
		return fail(err)
	}
	// A store without a schema holds no records: it is marked now, so the
	// marker becomes durable at the checkpoint its first schema does.
	marked := len(h.cat.Schemas()) == 0
	if marked {
		err = h.cat.MarkFormat(tsstore.BlobFormat)
	} else {
		marked, err = h.cat.FormatMarked(tsstore.BlobFormat)
	}
	if err == nil && !marked && checkFormat {
		err = fmt.Errorf("%w: run `odh-cli -dir %s upgrade`", ErrNeedsUpgrade, dir)
	}
	if err != nil {
		// Closing the page store would checkpoint it: a refused open closes
		// its file instead, leaving every byte as it found them.
		file.Close()
		return nil, err
	}
	walOpts := walog.Options{
		SyncOnAppend: opts.WALSyncOnAppend,
		SyncEvery:    opts.WALSyncEvery,
	}
	switch {
	case opts.WALBacking != nil:
		h.wal, err = walog.OpenFile(opts.WALBacking, walOpts)
	case dir != "" && opts.EnableRecoveryLog:
		h.wal, err = walog.OpenPath(filepath.Join(dir, "ingest.wal"), walOpts)
	}
	if err != nil {
		return fail(err)
	}
	// Opening the store replays wal: buffered points from a previous crash
	// re-enter the buffers, minus the ones a checkpoint had made durable.
	h.ts, err = tsstore.Open(page, h.cat, tsstore.Config{
		BatchSize:          opts.BatchSize,
		DisableCompression: opts.DisableCompression,
		LenientScan:        opts.Recovery == RecoverLenient,
		Log:                h.wal,
		BlobCacheBytes:     opts.BlobCacheBytes,
		SubBucketMs:        opts.SubBucketMs,
	})
	if err != nil {
		return fail(err)
	}
	if h.rel, err = relational.Open(page, relational.ProfileRDB); err != nil {
		return fail(err)
	}
	h.engine = sqlexec.New(h.rel, h.ts)
	h.engine.SetQueryWorkers(opts.QueryWorkers)
	h.engine.SetAggPushdown(!opts.DisableAggPushdown)
	return h, nil
}

// Close checkpoints (Flush) and releases the historian. A failed
// checkpoint still stops the log's writer and closes both files; the
// first error comes back and a second Close does nothing.
func (h *Historian) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	err := h.Flush()
	if rerr := h.release(); err == nil {
		err = rerr
	}
	return err
}

// release closes the recovery log and the page store, whatever state the
// buffers are in, and returns the first error.
func (h *Historian) release() error {
	var err error
	if h.wal != nil {
		err = h.wal.Close()
	}
	if cerr := h.page.Close(); err == nil {
		err = cerr
	}
	return err
}

// CreateSchema registers a schema type; the ID field is assigned.
func (h *Historian) CreateSchema(st SchemaType) (*SchemaType, error) {
	return h.cat.CreateSchema(st)
}

// Schema looks up a schema type by name.
func (h *Historian) Schema(name string) (*SchemaType, bool) {
	return h.cat.SchemaByName(name)
}

// CreateVirtualTable exposes a schema type under a SQL table name.
func (h *Historian) CreateVirtualTable(table, schemaName string) error {
	s, ok := h.cat.SchemaByName(schemaName)
	if !ok {
		return fmt.Errorf("odh: unknown schema type %q", schemaName)
	}
	return h.cat.CreateVirtualTable(table, s.ID)
}

// RegisterSource registers one data source (ID 0 auto-assigns); the
// stored source, including any MG group assignment, is returned.
func (h *Historian) RegisterSource(ds DataSource) (*DataSource, error) {
	return h.cat.RegisterSource(ds)
}

// RegisterSources batch-registers sources (the smart-meter provisioning
// path).
func (h *Historian) RegisterSources(list []DataSource) ([]*DataSource, error) {
	return h.cat.RegisterSources(list)
}

// Source looks up a registered data source.
func (h *Historian) Source(id int64) (*DataSource, bool) {
	return h.cat.Source(id)
}

// Stats returns the catalog statistics of one source.
func (h *Historian) Stats(source int64) SourceStats {
	return h.cat.Stats(source)
}

// Writer returns the high-throughput writer API.
func (h *Historian) Writer() *Writer { return &Writer{h: h} }

// Query parses and executes one SQL statement (SELECT, CREATE TABLE,
// CREATE INDEX, CREATE VIRTUAL TABLE, INSERT, EXPLAIN SELECT). A SELECT's
// rows stream from Result.Next, each valid until the next call (see Row).
func (h *Historian) Query(sql string) (*Result, error) {
	return h.engine.Query(sql)
}

// QueryContext is Query under a context: canceling ctx (or exceeding its
// deadline) aborts planning, scans and aggregate workers, and subsequent
// Result.Next calls with the context's error.
func (h *Historian) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return h.engine.QueryCtx(ctx, sql)
}

// Plan returns the optimizer's physical plan for a SELECT.
func (h *Historian) Plan(sql string) (string, error) {
	return h.engine.Plan(sql)
}

// Reorganize converts the MG records of a schema keyed below upTo into
// per-source RTS/IRTS batches (Table 1's historical layout) — every one,
// including late records written below the upTo of an earlier call. A
// converted run that starts where a per-source record starts merges with
// it; a second call with the same upTo converts nothing.
func (h *Historian) Reorganize(schemaName string, upTo int64) error {
	s, ok := h.cat.SchemaByName(schemaName)
	if !ok {
		return fmt.Errorf("odh: unknown schema type %q", schemaName)
	}
	_, err := h.ts.Reorganize(s.ID, upTo)
	return err
}

// DropBefore ages out persisted batches of a schema whose data lies
// entirely before the cutoff (retention is batch-granular). It returns
// the number of batch records removed.
func (h *Historian) DropBefore(schemaName string, cutoff int64) (int, error) {
	s, ok := h.cat.SchemaByName(schemaName)
	if !ok {
		return 0, fmt.Errorf("odh: unknown schema type %q", schemaName)
	}
	res, err := h.ts.DropBefore(s.ID, cutoff)
	return res.Dropped, err
}

// Coalesce merges a schema's fragmented small batches back into full
// ones (maintenance after out-of-order ingest or MG overflow). It
// returns the schema's per-source batch counts before and after.
func (h *Historian) Coalesce(schemaName string) (before, after int, err error) {
	s, ok := h.cat.SchemaByName(schemaName)
	if !ok {
		return 0, 0, fmt.Errorf("odh: unknown schema type %q", schemaName)
	}
	res, err := h.ts.Coalesce(s.ID)
	return res.Records, res.Records - res.Deleted + res.Rewritten, err
}

// TierSchema runs one storage-lifecycle pass over a schema with an
// explicit policy and reference time: records whose data ends before
// now-ColdAfterMs coalesce into large max-effort-compressed cold batches;
// records older than now-StubAfterMs truncate to summary-only stubs that
// keep answering COUNT/SUM/AVG/MIN/MAX (raw-row scans over them fail with
// ErrStubbed). Timestamps are the schema's own clock — pass whatever
// "now" the data's timestamps are relative to.
func (h *Historian) TierSchema(schemaName string, pol TierPolicy, now int64) (MaintenanceResult, error) {
	s, ok := h.cat.SchemaByName(schemaName)
	if !ok {
		return MaintenanceResult{}, fmt.Errorf("odh: unknown schema type %q", schemaName)
	}
	return h.ts.TierSchema(s.ID, pol, now)
}

// UpgradeBlobs is the statistics repair of a served store: it re-derives
// every source's catalog statistics from its records' headers (its format
// half, Upgrade's first step, finds nothing to rewrite in a served store).
// Call Flush to make the pass durable.
func (h *Historian) UpgradeBlobs() (MaintenanceResult, error) {
	return h.ts.UpgradeBlobs()
}

// TierStats walks the persisted batch trees and reports blob counts and
// bytes per tier (hot, cold, stub).
func (h *Historian) TierStats() (TierStats, error) {
	return h.ts.TierStats()
}

// LatestTS returns the newest timestamp in a schema's catalog statistics
// (false when the schema is unknown or empty) — the reference clock for
// age-based maintenance like TierSchema when the data's timestamps are
// not wall-clock.
func (h *Historian) LatestTS(schemaName string) (int64, bool) {
	s, ok := h.cat.SchemaByName(schemaName)
	if !ok {
		return 0, false
	}
	var last int64
	seen := false
	note := func(st SourceStats) {
		if st.PointCount > 0 && (!seen || st.LastTS > last) {
			last, seen = st.LastTS, true
		}
	}
	for _, src := range h.cat.SourcesBySchema(s.ID) {
		note(h.cat.Stats(src))
	}
	for _, g := range h.cat.GroupsBySchema(s.ID) {
		note(h.cat.GroupStats(g))
	}
	return last, seen
}

// Schemas lists all registered schema types.
func (h *Historian) Schemas() []*SchemaType { return h.cat.Schemas() }

// VirtualTables lists the registered virtual table names.
func (h *Historian) VirtualTables() []string { return h.cat.VirtualTables() }

// Tables lists the relational table names.
func (h *Historian) Tables() []string { return h.rel.Tables() }

// Flush is the historian's one checkpoint (tsstore.Store.Flush): ingest
// buffers drain into batches, the recovery log syncs, the page store
// commits, and only then does the log recycle. When it returns nil, every
// point acked before the call is in committed pages.
func (h *Historian) Flush() error { return h.ts.Flush() }

// ReplayLog writes the points in l's records that the historian does not
// already hold, in batches through the normal write path — so what it applies is itself
// covered by the recovery log — and skips the rest: the same dedup Open
// runs over its own log. It is how a cluster replays the hinted-handoff
// log of a copy that missed writes; l is not modified.
func (h *Historian) ReplayLog(l *walog.Log) (applied, skipped int, err error) {
	return h.ts.Replay(l)
}

// HistorianStats is the historian's counters: the store's, embedded, and
// the ones the page store and the recovery log keep. Each is declared
// once, in the layer that counts it; metrics.Walk names them for STATS
// and odh-cli, metrics.Add sums them across a cluster.
type HistorianStats struct {
	tsstore.Stats
	// BlobBytes is the persisted ValueBlob payload.
	BlobBytes int64
	// StorageBytes is the page store's total size.
	StorageBytes int64
	// IOBytesWritten / IOBytesRead count page-level I/O.
	IOBytesWritten int64
	IOBytesRead    int64
	// PoolHits / PoolMisses / PoolEvictions count buffer-pool activity
	// across all latch partitions; PoolHitRate is Hits/(Hits+Misses).
	PoolHits      int64
	PoolMisses    int64
	PoolEvictions int64
	PoolHitRate   float64
	// WALRecords / WALGroupCommits count recovery-log records and the
	// write syscalls that carried them. A record is the frame of one
	// ingest call, not a point, so their ratio — the group-commit
	// coalescing factor — counts calls of different writers that shared
	// a write. Zero when no log is attached.
	WALRecords      int64
	WALGroupCommits int64
}

// TotalStats returns historian-wide counters.
func (h *Historian) TotalStats() HistorianStats {
	ps := h.page.Stats()
	st := HistorianStats{
		Stats:          h.ts.Stats(),
		BlobBytes:      int64(h.ts.BlobBytesTotal()),
		StorageBytes:   h.page.SizeBytes(),
		IOBytesWritten: ps.BytesWritten,
		IOBytesRead:    ps.BytesRead,
		PoolHits:       ps.Hits,
		PoolMisses:     ps.Misses,
		PoolEvictions:  ps.Evictions,
		PoolHitRate:    ps.HitRate(),
	}
	if h.wal != nil {
		ws := h.wal.Stats()
		st.WALRecords = ws.Records
		st.WALGroupCommits = ws.GroupCommits
	}
	return st
}

// PoolPartitionStats returns per-partition buffer-pool counters (one
// entry per latch partition), for the CLI's .stats view and tuning.
func (h *Historian) PoolPartitionStats() []pagestore.Stats {
	return h.page.PartitionStats()
}

// Writer is the ODH writer API ("a set of carefully designed writer APIs
// that are highly efficient for the operational data model"). Writes are
// non-transactional: an acked point sits in an ingest buffer, a full batch
// in a dirty page, and both are durable only in the recovery log (when one
// is attached, under its sync policy) until the next checkpoint — Flush —
// commits the pages.
type Writer struct {
	h *Historian
}

// Write ingests one point.
func (w *Writer) Write(p Point) error { return w.h.ts.Write(p) }

// WritePoint ingests one record without building a Point value.
func (w *Writer) WritePoint(source, ts int64, values ...float64) error {
	return w.h.ts.Write(Point{Source: source, TS: ts, Values: values})
}

// WriteBatch ingests a slice of points.
func (w *Writer) WriteBatch(points []Point) error { return w.h.ts.WriteBatch(points) }

// WriteBatchParallel is WriteBatch. It remains only because the benchmark
// harness calls it by this name — there is one ingest path, and this is
// not a second one.
func (w *Writer) WriteBatchParallel(points []Point) error { return w.WriteBatch(points) }

// Flush is Historian.Flush: when it returns nil, every point acked before
// the call is in committed pages.
func (w *Writer) Flush() error { return w.h.Flush() }
