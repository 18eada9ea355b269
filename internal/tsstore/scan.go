package tsstore

import (
	"cmp"
	"context"
	"slices"
	"sync/atomic"

	"odh/internal/btree"
	"odh/internal/model"
)

// Iterator yields operational points, owner by owner: one source's (or MG
// member's) in timestamp order, a slice's MG group's as its records store
// them (see SliceScanOpts). Implementations are not safe for concurrent
// use; create one per query. A Point's Values hold at least the
// tags through the last one the scan asked for (wantTags; every tag for a
// nil selection), and a tag at or past len(Values) reads as NULL. A stored
// record's row stops exactly there, its unselected tags NULL; a buffered
// row (a dirty read) may be wider, with every tag's value. Values are lent
// and read-only: they may alias a decoded batch that the decoded-blob
// cache shares with other scans, so a caller that changes or keeps them
// copies them first.
type Iterator interface {
	// Next returns the next point; ok is false when exhausted.
	Next() (p model.Point, ok bool)
	// Err returns the first error the iterator hit, if any.
	Err() error
	// BlobBytes returns the total ValueBlob bytes decoded so far — the
	// paper's query cost unit, surfaced to the executor for reporting. A
	// record decoded for any of its rows charges its full encoded length; a
	// record pruned by its header's span charges nothing.
	BlobBytes() int64
}

// pointBlobBytes estimates the ValueBlob bytes one in-memory point stands
// for: an 8-byte timestamp plus one float64 per tag. Buffered points that
// a dirty read serves never touch a blob, but they still carry real cost
// and must feed the blob-bytes accounting (the paper's cost unit), so the
// estimate cannot be zero.
func pointBlobBytes(ntags int) int64 { return 8 + 8*int64(ntags) }

// ScanOptions tunes one scan or aggregate; the zero value is the serial,
// cached behavior of the plain scan methods.
type ScanOptions struct {
	// Workers bounds how many owners (sources and MG groups) of a multi or
	// slice aggregate fold concurrently, each owner in one walk into its
	// own partial; values <= 1 keep it on the calling goroutine. A
	// one-source aggregate is one walk whatever it says. Row scans ignore
	// it: their consumer pulls rows serially, so workers could only
	// materialize parts ahead of it, which measured slower than not doing
	// so (EXPERIMENTS.md, "Fast-path findings").
	Workers int
	// NoCache bypasses the decoded-blob cache for this scan (reads and
	// inserts); tests use it to cross-check cached results. VerifyBlobs
	// reads the trees directly and never meets the cache.
	NoCache bool
	// Ctx, when non-nil, cancels the scan: iterators observe it before
	// each walker step and blob decode, aggregate workers between owners
	// and records. A canceled scan stops decoding and reports ctx.Err()
	// through Iterator.Err (or the aggregate call's error).
	Ctx context.Context
}

// TagPred is one pushed-down predicate bound on a tag, the one form scans
// and aggregates take. Rows where the tag is NULL never match. Use ±Inf for
// open sides. A blob's zone maps read the bounds inclusively, which is safe
// for skipping; the aggregate keeps the strictness to prove from a summary
// that every row matches.
type TagPred struct {
	Tag                int
	Lo, Hi             float64
	LoStrict, HiStrict bool // true = exclusive bound
}

// holds reports whether every value in [lo, hi] lies within p's bounds.
func (p TagPred) holds(lo, hi float64) bool {
	return (lo > p.Lo || !p.LoStrict && lo >= p.Lo) && (hi < p.Hi || !p.HiStrict && hi <= p.Hi)
}

// ctxErr is a nil-safe ctx.Err for the scan paths (nil ctx = no
// cancellation, the historical behavior).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// scanCache resolves the cache a scan should use (nil = bypass).
func (s *Store) scanCache(opts ScanOptions) *blobCache {
	if opts.NoCache {
		return nil
	}
	return s.cache
}

// scanIter yields the rows of a walker list, owner by owner, in the order
// Iterator states. Records are keyed by their first timestamp but may
// overlap (out-of-order ingest splits a batch, and an owner's homes
// interleave); the iterator decodes a chunk's records lazily, in key
// order, and in a walk of one source holds rows back until no undecoded
// record of the chunk could still precede them.
type scanIter struct {
	ws    []*walker
	wi    int // the walker walking; the ones before it are released
	preds []TagPred
	ch    chunk
	ri    int           // next record of ch to decode
	queue []model.Point // pending rows of ch, in hand-out order
	qi    int
	asIs  bool // a whole MG group's walk: rows leave as stored, neither sorted nor held back
	err   error
	// bytesRead accumulates decoded blob sizes plus the estimate for
	// buffered rows; the executor reports it as the query's I/O cost,
	// matching the paper's cost unit. Cache hits do not add to it —
	// nothing was read — they count in the cache's BytesSaved instead.
	bytesRead int64
}

func (it *scanIter) Next() (model.Point, bool) {
	for it.err == nil {
		if it.qi < len(it.queue) {
			if it.asIs || it.ri >= len(it.ch.recs) || it.queue[it.qi].TS < it.ch.recs[it.ri].ts {
				p := it.queue[it.qi]
				it.qi++
				return p, true
			}
		} else if it.ri >= len(it.ch.recs) {
			if it.wi == len(it.ws) {
				break
			}
			if w := it.ws[it.wi]; w.done {
				w.release(after(it.ws, it.wi))
				it.wi++
			} else {
				it.ch, it.err = w.step()
				it.ri, it.asIs = 0, w.group.Members != nil && w.slot == allMembers
			}
			continue
		}
		it.err = it.load(&it.ch.recs[it.ri])
		it.ri++
	}
	return model.Point{}, false
}

// load decodes one record of the current chunk into the queue.
func (it *scanIter) load(rec *walkRec) error {
	w := it.ws[it.wi]
	it.queue = append(it.queue[:0], it.queue[it.qi:]...)
	it.qi = 0
	if rec.buffered != nil {
		for _, p := range rec.buffered {
			it.bytesRead += pointBlobBytes(len(p.Values))
		}
		it.queue = append(it.queue, rec.buffered...)
	} else {
		if !rec.hdr.overlaps(it.preds) {
			atomic.AddInt64(&w.s.stats.ZoneSkips, 1)
			return nil
		}
		batch, err := w.decode(rec, it.ch.lo, it.ch.hi, nil)
		if batch == nil {
			return err
		}
		if rec.hit == nil {
			it.bytesRead += rec.stored
		}
		// Rows are lent (see Iterator), whether the cache shares the batch or
		// not; the queue grows once per record, not per row.
		it.queue = slices.Grow(it.queue, len(batch.Timestamps))
		w.eachRow(rec, batch, it.ch.lo, it.ch.hi, func(src, ts int64, vals []float64) {
			it.queue = append(it.queue, model.Point{Source: src, TS: ts, Values: vals})
		})
	}
	// Records of one source rarely overlap; re-sort only when they do (or
	// when a member's MG rows, stored in slot order, are out of time order).
	if !it.asIs && !slices.IsSortedFunc(it.queue, byTS) {
		slices.SortStableFunc(it.queue, byTS)
	}
	return nil
}

// byTS orders points by timestamp alone.
func byTS(a, b model.Point) int { return cmp.Compare(a.TS, b.TS) }

func (it *scanIter) Err() error       { return it.err }
func (it *scanIter) BlobBytes() int64 { return it.bytesRead }

// HistoricalScan returns the points of one source with t1 <= ts < t2, in
// timestamp order, decoding only wantTags (nil = all): persisted batches,
// still-unreorganized MG records and the in-memory ingest buffer (dirty
// read). It stays because the benchmark harness and the recovery replay
// call it by this name — it is MultiHistoricalScanOpts of one id, not a
// second scan path.
func (s *Store) HistoricalScan(source, t1, t2 int64, wantTags []int, preds ...TagPred) (Iterator, error) {
	return s.MultiHistoricalScanOpts([]int64{source}, t1, t2, wantTags, ScanOptions{}, preds...)
}

// MultiHistoricalScanOpts returns the points of an explicit list of sources
// in [t1, t2) (`id = n` and the id IN (...) pushdown), source by source,
// each in timestamp order. An id the catalog does not know reads nothing.
func (s *Store) MultiHistoricalScanOpts(sources []int64, t1, t2 int64, wantTags []int, opts ScanOptions, preds ...TagPred) (Iterator, error) {
	return &scanIter{ws: s.sourceWalkers(sources, t1, t2, wantTags, opts), preds: preds}, nil
}

// SliceScanOpts returns points of every source of a schema in [t1, t2) —
// the paper's slice query ("data generated by multiple data sources for a
// short time window"): each RTS/IRTS source's in timestamp order, each MG
// group's records — its MG records and its members' reorganized ones — in
// key order, a record's rows as stored (an MG record's in slot order) and a
// buffered row after every record keyed at or before it. The order is the
// store's, whatever the cache or Workers; no consumer needs more (ORDER BY
// sorts for itself).
func (s *Store) SliceScanOpts(schemaID int64, t1, t2 int64, wantTags []int, opts ScanOptions, preds ...TagPred) (Iterator, error) {
	return &scanIter{ws: s.sliceWalkers(schemaID, t1, t2, wantTags, opts), preds: preds}, nil
}

// sourceWalkers returns one walker per source of the list, in list order;
// an id the catalog does not know contributes none.
func (s *Store) sourceWalkers(sources []int64, t1, t2 int64, wantTags []int, opts ScanOptions) []*walker {
	l := s.newWalkerList(len(sources), t1, t2, wantTags, opts)
	for _, src := range sources {
		if ds, ok := s.cat.Source(src); ok {
			l.sourceWalker(ds)
		}
	}
	return l.ws
}

// sliceWalkers returns one walker per owner of a schema's rows: MG groups
// first (each record covers groupSize sources), then the RTS/IRTS sources.
func (s *Store) sliceWalkers(schemaID int64, t1, t2 int64, wantTags []int, opts ScanOptions) []*walker {
	groups, sources := s.cat.GroupsBySchema(schemaID), s.cat.OwnRecordSources(schemaID)
	l := s.newWalkerList(len(groups)+len(sources), t1, t2, wantTags, opts)
	for _, g := range groups {
		l.groupWalker(g, nil)
	}
	for _, ds := range sources {
		l.sourceWalker(ds)
	}
	return l.ws
}

func (s *Store) treeFor(st model.Structure) *btree.Tree {
	switch st {
	case model.RTS:
		return s.rts
	case model.IRTS:
		return s.irts
	default:
		return s.mg
	}
}
