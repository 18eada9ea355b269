package tsstore

import (
	"math"

	"odh/internal/btree"
)

// DropResult summarizes a retention pass.
type DropResult struct {
	// RecordsDropped counts deleted batch records across structures.
	RecordsDropped int
	// BytesReclaimed is the ValueBlob payload removed.
	BytesReclaimed int64
}

// DropBefore deletes all persisted batches of a schema whose data lies
// entirely before the cutoff — the retention pass an operational
// historian runs to age out data past its lifecycle. Batches straddling
// the cutoff are kept whole (retention is batch-granular, like the
// paper's storage model). In-memory buffers are untouched: they only hold
// recent data.
func (s *Store) DropBefore(schemaID int64, cutoff int64) (DropResult, error) {
	res := DropResult{}
	// Per-source batches, all in the tree of the source's historical structure.
	for _, src := range s.cat.SourcesBySchema(schemaID) {
		ds, ok := s.cat.Source(src)
		if !ok {
			continue
		}
		if err := s.dropRange(s.treeFor(ds.HistoricalStructure()), src, cutoff, &res); err != nil {
			return res, err
		}
	}
	// MG records per group; a record's window must end before the cutoff.
	for _, g := range s.cat.GroupsBySchema(schemaID) {
		if effective := cutoff - s.groupWindow(g); effective > 0 {
			if err := s.dropRange(s.mg, g, effective, &res); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// dropRange deletes the records of one key range whose data ends before
// the cutoff: a batch is dropped only when its last timestamp is below it
// (straddlers are kept whole). The last timestamp comes straight from the
// summary header — only legacy (pre-summary) blobs pay for a decode.
// Summary-only stubs qualify like any other blob: retention is the tier
// lifecycle's final stage.
func (s *Store) dropRange(tree *btree.Tree, id, cutoff int64, res *DropResult) error {
	del, _, err := s.rewriteRange(tree, id, math.MinInt64, cutoff, func(recs []stored) (del, put []stored, err error) {
		for _, r := range recs {
			if _, _, last, ok := blobSpan(r); ok && last < cutoff {
				del = append(del, r)
			}
		}
		return del, nil, nil
	})
	res.RecordsDropped += len(del)
	res.BytesReclaimed += blobBytes(del)
	return err
}
