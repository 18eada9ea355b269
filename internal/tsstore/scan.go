package tsstore

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"odh/internal/btree"
	"odh/internal/model"
)

// Iterator yields operational points. Implementations are not safe for
// concurrent use; create one per query. A Point's Values hold at least the
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
	// inserts); used to cross-check cached results and by verification.
	NoCache bool
	// Ctx, when non-nil, cancels the scan: iterators observe it before
	// each walker step and blob decode, aggregate workers between owners
	// and records. A canceled scan stops decoding and reports ctx.Err()
	// through Iterator.Err (or the aggregate call's error).
	Ctx context.Context
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

// emptyIter yields nothing; zero blob bytes is its true cost.
type emptyIter struct{}

func (emptyIter) Next() (model.Point, bool) { return model.Point{}, false }
func (emptyIter) Err() error                { return nil }
func (emptyIter) BlobBytes() int64          { return 0 }

// concatIter drains each input in turn.
type concatIter struct {
	iters []Iterator
	i     int
	err   error
}

func (it *concatIter) Next() (model.Point, bool) {
	for it.i < len(it.iters) {
		p, ok := it.iters[it.i].Next()
		if ok {
			return p, true
		}
		if err := it.iters[it.i].Err(); err != nil && it.err == nil {
			it.err = err
			return model.Point{}, false
		}
		it.i++
	}
	return model.Point{}, false
}

func (it *concatIter) Err() error { return it.err }

func (it *concatIter) BlobBytes() int64 {
	var total int64
	for _, sub := range it.iters {
		total += sub.BlobBytes()
	}
	return total
}

// scanIter yields the rows of one walker in timestamp order. Records are
// keyed by their first timestamp but may overlap (out-of-order ingest
// splits a batch, and an owner's homes interleave); the iterator decodes
// a chunk's records lazily, in key order, and holds rows back until no
// undecoded record of the chunk could still precede them.
type scanIter struct {
	w         *walker
	tagRanges []TagRange
	ch        chunk
	ri        int           // next record of ch to decode
	queue     []model.Point // pending rows of ch, sorted by ts
	qi        int
	err       error
	// bytesRead accumulates decoded blob sizes plus the estimate for
	// buffered rows; the executor reports it as the query's I/O cost,
	// matching the paper's cost unit. Cache hits do not add to it —
	// nothing was read — they count in the cache's BytesSaved instead.
	bytesRead int64
}

func (it *scanIter) Next() (model.Point, bool) {
	for it.err == nil {
		if it.qi < len(it.queue) {
			if it.ri >= len(it.ch.recs) || it.queue[it.qi].TS < it.ch.recs[it.ri].ts {
				p := it.queue[it.qi]
				it.qi++
				return p, true
			}
		} else if it.ri >= len(it.ch.recs) {
			if it.w.done {
				it.w.release()
				break
			}
			it.ch, it.err = it.w.step()
			it.ri = 0
			continue
		}
		it.err = it.load(&it.ch.recs[it.ri])
		it.ri++
	}
	return model.Point{}, false
}

// load decodes one record of the current chunk into the queue.
func (it *scanIter) load(rec *walkRec) error {
	it.queue = append(it.queue[:0], it.queue[it.qi:]...)
	it.qi = 0
	if rec.buffered != nil {
		for _, p := range rec.buffered {
			it.bytesRead += pointBlobBytes(len(p.Values))
		}
		it.queue = append(it.queue, rec.buffered...)
	} else {
		if !rec.hdr.overlaps(it.tagRanges) {
			it.w.s.zoneSkips.Add(1)
			return nil
		}
		batch, err := it.w.decode(rec, it.ch.lo, it.ch.hi)
		if batch == nil {
			return err
		}
		if rec.hit == nil {
			it.bytesRead += rec.size()
		}
		// Rows are lent (see Iterator), whether the cache shares the batch or
		// not; the queue grows once per record, not per row.
		it.queue = slices.Grow(it.queue, len(batch.Timestamps))
		it.w.eachRow(rec, batch, it.ch.lo, it.ch.hi, func(src, ts int64, vals []float64) {
			it.queue = append(it.queue, model.Point{Source: src, TS: ts, Values: vals})
		})
	}
	// Records rarely overlap; re-sort only when they do (or when MG rows,
	// stored in slot order, are out of time order).
	if !slices.IsSortedFunc(it.queue, byTS) {
		slices.SortStableFunc(it.queue, byTS)
	}
	return nil
}

// byTS orders points by timestamp alone.
func byTS(a, b model.Point) int { return cmp.Compare(a.TS, b.TS) }

func (it *scanIter) Err() error       { return it.err }
func (it *scanIter) BlobBytes() int64 { return it.bytesRead }

// concat yields the parts one after another on the caller's goroutine.
func concat(parts []Iterator) Iterator {
	switch len(parts) {
	case 0:
		return emptyIter{}
	case 1:
		return parts[0]
	}
	return &concatIter{iters: parts}
}

// HistoricalScan returns the points of one source with t1 <= ts < t2, in
// timestamp order, decoding only wantTags (nil = all). It merges persisted
// batches, still-unreorganized MG records, and the in-memory ingest buffer
// (dirty read).
func (s *Store) HistoricalScan(source, t1, t2 int64, wantTags []int, tagRanges ...TagRange) (Iterator, error) {
	return s.HistoricalScanOpts(source, t1, t2, wantTags, ScanOptions{}, tagRanges...)
}

// HistoricalScanOpts is HistoricalScan with scan tuning.
func (s *Store) HistoricalScanOpts(source, t1, t2 int64, wantTags []int, opts ScanOptions, tagRanges ...TagRange) (Iterator, error) {
	ds, ok := s.cat.Source(source)
	if !ok {
		return nil, fmt.Errorf("tsstore: unknown data source %d", source)
	}
	return &scanIter{w: s.sourceWalker(ds, t1, t2, wantTags, opts), tagRanges: tagRanges}, nil
}

// SliceScanOpts returns points of every source of a schema in [t1, t2) —
// the paper's slice query ("data generated by multiple data sources for a
// short time window"). MG groups serve slices directly from their
// time-keyed records; RTS/IRTS sources are visited per source. Output is
// grouped per source/group, not globally time-sorted.
func (s *Store) SliceScanOpts(schemaID int64, t1, t2 int64, wantTags []int, opts ScanOptions, tagRanges ...TagRange) (Iterator, error) {
	var parts []Iterator
	for _, w := range s.sliceWalkers(schemaID, t1, t2, wantTags, opts) {
		parts = append(parts, &scanIter{w: w, tagRanges: tagRanges})
	}
	return concat(parts), nil
}

// sliceWalkers returns one walker per owner of a schema's rows: MG groups
// first (each record covers groupSize sources), then the RTS/IRTS sources.
func (s *Store) sliceWalkers(schemaID int64, t1, t2 int64, wantTags []int, opts ScanOptions) []*walker {
	var ws []*walker
	for _, g := range s.cat.GroupsBySchema(schemaID) {
		ws = append(ws, s.groupWalker(g, 0, t1, t2, wantTags, opts))
	}
	for _, ds := range s.cat.OwnRecordSources(schemaID) {
		ws = append(ws, s.sourceWalker(ds, t1, t2, wantTags, opts))
	}
	return ws
}

// MultiHistoricalScanOpts concatenates historical scans for an explicit list
// of sources (the id IN (...) pushdown). Output is grouped per source.
func (s *Store) MultiHistoricalScanOpts(sources []int64, t1, t2 int64, wantTags []int, opts ScanOptions, tagRanges ...TagRange) (Iterator, error) {
	parts := make([]Iterator, 0, len(sources))
	for _, src := range sources {
		// Unknown ids in the IN list simply contribute no rows.
		if it, err := s.HistoricalScanOpts(src, t1, t2, wantTags, opts, tagRanges...); err == nil {
			parts = append(parts, it)
		}
	}
	return concat(parts), nil
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
