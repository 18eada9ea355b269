package tsstore

import "odh/internal/model"

// The reorganizer implements the third and fourth rows of the paper's
// Table 1: low-frequency data ingests through MG (one record per
// timestamp per group) but historical queries over a single source want
// per-source sequential batches, so older MG records are converted into
// RTS (regular sources) or IRTS (irregular sources) batches. Slice
// queries keep using MG for the unconverted recent stripe; the per-group
// watermark separates the two regimes.

// ReorgResult summarizes one reorganization pass.
type ReorgResult struct {
	// Groups is the number of groups touched.
	Groups int
	// RecordsConverted is the number of MG records consumed.
	RecordsConverted int
	// BatchesWritten is the number of RTS/IRTS batches produced.
	BatchesWritten int
	// PointsMoved is the number of operational points rehomed.
	PointsMoved int
}

// ReorganizeGroup converts the MG records of one group with ts < upTo into
// per-source RTS/IRTS batches, deletes them from the MG tree, and advances
// the group's watermark. The whole stripe moves in one rewrite under the
// group's latch, so ingest and queries may run throughout.
func (s *Store) ReorganizeGroup(group int64, upTo int64) (ReorgResult, error) {
	res := ReorgResult{}
	members := s.cat.GroupMembers(group)
	if len(members) == 0 {
		return res, nil
	}
	wm := s.watermark(group)
	if upTo <= wm {
		return res, nil // stripe already converted
	}
	ds0, ok := s.cat.Source(members[0])
	if !ok {
		return res, nil
	}
	schema, ok := s.cat.SchemaByID(ds0.SchemaID)
	if !ok {
		return res, nil
	}
	_, _, err := s.rewriteRange(s.mg, group, wm, upTo, func(recs []stored) (del, put []stored, err error) {
		// Gather the stripe per member. MG records are time-ordered, so
		// each member's points arrive sorted.
		perSource := make(map[int64][]model.Point, len(members))
		for _, r := range recs {
			batch, err := DecodeBlob(r.blob, r.ts, nil)
			if err != nil {
				continue // unreadable: leave it for fsck
			}
			for i, slot := range batch.Slots {
				if slot < len(members) {
					src := members[slot]
					perSource[src] = append(perSource[src], model.Point{Source: src, TS: batch.Timestamps[i], Values: batch.Rows[i]})
				}
			}
			del = append(del, r)
		}
		// The members' per-source ranges share the group's latch.
		for _, src := range members {
			ds, ok := s.cat.Source(src)
			if pts := perSource[src]; ok && len(pts) > 0 {
				runs := s.encodeRuns(ds, schema, pts, ds.HistoricalStructure(), s.encodeOptsFor(schema), s.cfg.BatchSize)
				if err := s.rewriteLocked(s.treeFor(ds.HistoricalStructure()), src, nil, runs); err != nil {
					return nil, nil, err
				}
				res.BatchesWritten += len(runs)
				res.PointsMoved += len(pts)
			}
		}
		res.RecordsConverted = len(del)
		return del, nil, nil
	})
	if err != nil {
		return res, err
	}
	if res.RecordsConverted > 0 {
		res.Groups = 1
	}
	return res, s.setWatermark(group, upTo)
}

// encodeRuns packs a sorted per-source point run into RTS or IRTS records
// of at most batchSize points, splitting RTS runs at gaps: the encoder
// behind the reorganizer and coalescing (store defaults) and the cold
// pass (larger batches, max-effort codecs).
func (s *Store) encodeRuns(ds *model.DataSource, schema *model.SchemaType, pts []model.Point, structure model.Structure, opts encodeOpts, batchSize int) []stored {
	var out []stored
	for _, run := range splitBatchRuns(pts, structure, ds.IntervalMs, batchSize) {
		out = append(out, stored{ts: run[0].TS, blob: encodeRun(ds, schema, run, structure, opts)})
	}
	return out
}

// encodeRun encodes one batch run in the given structure.
func encodeRun(ds *model.DataSource, schema *model.SchemaType, run []model.Point, structure model.Structure, opts encodeOpts) []byte {
	if structure == model.RTS {
		return EncodeRTS(run, len(schema.Tags), ds.IntervalMs, opts)
	}
	return EncodeIRTS(run, len(schema.Tags), opts)
}

// splitBatchRuns partitions a sorted point slice into batch runs of at
// most batchSize points, splitting RTS runs at sampling gaps and capping
// each run's time span at batchSize sampling intervals so batches stay
// aligned with the data's natural cadence; retention (which drops whole
// batches) then keeps working after reorganization, coalescing, and cold
// compaction. The returned runs alias pts.
func splitBatchRuns(pts []model.Point, structure model.Structure, intervalMs int64, batchSize int) [][]model.Point {
	maxSpan := int64(0)
	if intervalMs > 0 {
		maxSpan = int64(batchSize) * intervalMs
	}
	var runs [][]model.Point
	start := 0
	for i := 1; i < len(pts); i++ {
		gap := structure == model.RTS && pts[i].TS != pts[i-1].TS+intervalMs
		tooWide := maxSpan > 0 && pts[i].TS-pts[start].TS >= maxSpan
		if gap || tooWide || i-start >= batchSize {
			runs = append(runs, pts[start:i])
			start = i
		}
	}
	if start < len(pts) {
		runs = append(runs, pts[start:])
	}
	return runs
}

// writeHistoricalPoint stores a single point directly in the source's
// historical structure (the MG duplicate-sample overflow path). Caller
// holds the group's latch.
func (s *Store) writeHistoricalPoint(ds *model.DataSource, schema *model.SchemaType, p model.Point) error {
	_, err := s.putRunLocked(ds, schema, ds.HistoricalStructure(), []model.Point{p})
	return err
}

// Reorganize converts every group of a schema up to the given timestamp.
// Historians typically run it periodically with upTo = now - retention of
// the "recent" slice-query window.
func (s *Store) Reorganize(schemaID int64, upTo int64) (ReorgResult, error) {
	total := ReorgResult{}
	for _, g := range s.cat.GroupsBySchema(schemaID) {
		res, err := s.ReorganizeGroup(g, upTo)
		if err != nil {
			return total, err
		}
		total.Groups += res.Groups
		total.RecordsConverted += res.RecordsConverted
		total.BatchesWritten += res.BatchesWritten
		total.PointsMoved += res.PointsMoved
	}
	return total, nil
}
