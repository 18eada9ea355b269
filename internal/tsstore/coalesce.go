package tsstore

import (
	"math"

	"odh/internal/model"
)

// CoalesceResult summarizes one compaction pass.
type CoalesceResult struct {
	// BatchesBefore and BatchesAfter count the source's records around
	// the pass.
	BatchesBefore, BatchesAfter int
	// BytesBefore and BytesAfter measure the blob payload.
	BytesBefore, BytesAfter int64
}

// CoalesceSource rewrites a source's persisted RTS/IRTS history so runs of
// undersized batches merge into full ones. Out-of-order ingest splits and
// the MG duplicate-overflow path leave single-point batches behind; this
// maintenance pass restores the b-points-per-record invariant that the
// data model's I/O amortization depends on. Only batches below
// batchSize/2 trigger a rewrite; the pass is a no-op on healthy history.
func (s *Store) CoalesceSource(source int64) (CoalesceResult, error) {
	res := CoalesceResult{}
	ds, ok := s.cat.Source(source)
	if !ok {
		return res, nil
	}
	schema, ok := s.cat.SchemaByID(ds.SchemaID)
	if !ok {
		return res, nil
	}
	structure := ds.IngestStructure()
	if structure == model.MG {
		structure = ds.HistoricalStructure()
	}
	del, put, err := s.rewriteRange(s.treeFor(structure), source, math.MinInt64, math.MaxInt64, func(recs []stored) (del, put []stored, err error) {
		// Cold blobs were already compacted at a larger granularity and
		// stubs have no payload; both stay where the tier pass put them.
		hot, all := decodeRecords(source, recs, func(r stored) bool { return BlobTier(r.blob) == TierHot })
		res.BatchesBefore, res.BytesBefore = len(hot), blobBytes(hot)
		small := false
		for _, r := range hot {
			rows, _, _, _ := blobSpan(r)
			small = small || int(rows)*2 < s.cfg.BatchSize
		}
		if !small || len(hot) < 2 {
			return nil, nil, nil
		}
		// Rebuild the full history (a source's total history fits the
		// maintenance window by assumption; callers with huge histories run
		// DropBefore first or coalesce after retention).
		return hot, s.encodeRuns(ds, schema, all, structure, s.encodeOptsFor(schema), s.cfg.BatchSize), nil
	})
	res.BatchesAfter = res.BatchesBefore - len(del) + len(put)
	res.BytesAfter = res.BytesBefore - blobBytes(del) + blobBytes(put)
	return res, err
}

// decodeRecords decodes the records pick accepts (nil = all) into one
// timestamp-sorted point run — the read half of every content-preserving
// rewrite. It returns the records it decoded; unreadable ones are left
// for fsck, never destroyed.
func decodeRecords(source int64, recs []stored, pick func(stored) bool) (picked []stored, pts []model.Point) {
	for _, r := range recs {
		if pick != nil && !pick(r) {
			continue
		}
		batch, err := DecodeBlob(r.blob, r.ts, nil)
		if err != nil {
			continue
		}
		for i, ts := range batch.Timestamps {
			pts = append(pts, model.Point{Source: source, TS: ts, Values: batch.Rows[i]})
		}
		picked = append(picked, r)
	}
	// Batches can overlap after out-of-order ingest; restore global order
	// with a stable merge (mostly-sorted input).
	insertionSortPoints(pts)
	return picked, pts
}

// insertionSortPoints sorts nearly-sorted point slices in place.
func insertionSortPoints(pts []model.Point) {
	for i := 1; i < len(pts); i++ {
		j := i
		for j > 0 && pts[j].TS < pts[j-1].TS {
			pts[j], pts[j-1] = pts[j-1], pts[j]
			j--
		}
	}
}

// Coalesce runs CoalesceSource over every source of a schema.
func (s *Store) Coalesce(schemaID int64) (CoalesceResult, error) {
	total := CoalesceResult{}
	for _, src := range s.cat.SourcesBySchema(schemaID) {
		res, err := s.CoalesceSource(src)
		if err != nil {
			return total, err
		}
		total.BatchesBefore += res.BatchesBefore
		total.BatchesAfter += res.BatchesAfter
		total.BytesBefore += res.BytesBefore
		total.BytesAfter += res.BytesAfter
	}
	return total, nil
}
