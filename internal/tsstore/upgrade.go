package tsstore

import (
	"math"

	"odh/internal/btree"
	"odh/internal/model"
)

// UpgradeResult summarizes one UpgradeBlobs pass.
type UpgradeResult struct {
	// Records counts the batch records examined; Rewritten those that were
	// re-encoded at the current format.
	Records   int
	Rewritten int
	// BytesBefore and BytesAfter measure the rewritten records around the
	// pass.
	BytesBefore, BytesAfter int64
	// StatsMoved counts the homes (a source's range of one tree, or a
	// group's MG range) whose catalog statistics the pass corrected.
	StatsMoved int
}

// UpgradeBlobs rewrites every batch record written before the current blob
// format — no header summary, or no sub-bucket block while the store
// writes them — in place: decode, re-encode at the current format, put
// under the same key. Afterwards aggregates fold those records from their
// headers instead of decoding them. Every scan and aggregate result is
// unchanged bit for bit: the re-encode is lossless over the values the old
// record decoded to, and keeps the record's tier. Stubs stay as they are
// (their rows are gone), unreadable records are left for fsck, and a
// record already current is not touched, so a second pass rewrites none.
//
// The pass then re-derives each home's catalog statistics from the headers
// of the records it holds: exact counts and row bounds, and span bounds as
// tight as the records allow — which is how a store written before the
// per-tier bounds gets them, and the repair for statistics that drifted,
// were lost, or that fsck found understating a record's reach.
//
// Safe beside ingest and queries like any other rewrite; the caller
// flushes the page store to make the pass durable.
func (s *Store) UpgradeBlobs() (UpgradeResult, error) {
	var res UpgradeResult
	upgrade := func(tree *btree.Tree, id int64) error {
		// rewriteRange's steps, spelled out: the statistics are set after
		// the rewrite applied, under the same hold of the latch. Every put
		// replaces its own del, so there is no kept key to collide with.
		sh := s.latch(tree, id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		recs, err := readRange(&home{tree: tree, id: id}, math.MinInt64, math.MaxInt64)
		if err != nil {
			return err
		}
		res.Records += len(recs)
		var del, put []stored
		for i, r := range recs {
			if blob, ok := s.upgradedBlob(r); ok {
				recs[i].blob = blob
				del, put = append(del, r), append(put, recs[i])
			}
		}
		if err := s.rewriteLocked(tree, id, del, put); err != nil {
			return err
		}
		res.Rewritten += len(put)
		res.BytesBefore += blobBytes(del)
		res.BytesAfter += blobBytes(put)
		var st model.SourceStats
		for _, r := range recs {
			st.Merge(recordStats(r))
		}
		set := s.cat.SetStats
		if tree == s.mg {
			set = s.cat.SetGroupStats
		}
		moved, err := set(id, st)
		if moved {
			res.StatsMoved++
		}
		return err
	}
	for _, schema := range s.cat.Schemas() {
		for _, src := range s.cat.SourcesBySchema(schema.ID) {
			// A source's records, and so its statistics, live in one tree.
			if ds, ok := s.cat.Source(src); ok {
				if err := upgrade(s.treeFor(ds.HistoricalStructure()), src); err != nil {
					return res, err
				}
			}
		}
		for _, g := range s.cat.GroupsBySchema(schema.ID) {
			if err := upgrade(s.mg, g); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// upgradedBlob returns r re-encoded at the current format, or false when r
// stays as it is.
func (s *Store) upgradedBlob(r stored) ([]byte, bool) {
	h, ok := parseBlobHeader(r.blob)
	if !ok || h.tier() == TierStub {
		return nil, false
	}
	if h.hasSummary() && (h.subOff != 0 || s.cfg.SubBucketMs <= 0 || h.structure == blobMG) {
		return nil, false
	}
	batch, err := h.decodeAll(r.ts, nil)
	if err != nil {
		return nil, false
	}
	// No per-tag policies: a lossy codec applied to values that already
	// went through one could move them again.
	opts := s.encodeOptsFor(nil)
	opts.legacy = false
	opts.cold = h.tier() == TierCold
	blob := h.reencode(batch, r.ts, opts)
	// A summarized blob may gain nothing: with no rows, or a span past the
	// writer's cap, it has no sub-bucket block at any format.
	nh, _ := parseBlobHeader(blob)
	return blob, !h.hasSummary() || nh.subOff != 0
}
