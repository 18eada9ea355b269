package tsstore

import (
	"math"

	"odh/internal/btree"
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
// Safe beside ingest and queries like any other rewrite; the caller
// flushes the page store to make the pass durable.
func (s *Store) UpgradeBlobs() (UpgradeResult, error) {
	var res UpgradeResult
	upgrade := func(tree *btree.Tree, id int64) error {
		del, put, err := s.rewriteRange(tree, id, math.MinInt64, math.MaxInt64, func(recs []stored) (del, put []stored, err error) {
			res.Records += len(recs)
			for _, r := range recs {
				if blob, ok := s.upgradedBlob(r); ok {
					del = append(del, r)
					put = append(put, stored{ts: r.ts, blob: blob})
				}
			}
			return del, put, nil
		})
		res.Rewritten += len(put)
		res.BytesBefore += blobBytes(del)
		res.BytesAfter += blobBytes(put)
		return err
	}
	for _, schema := range s.cat.Schemas() {
		for _, src := range s.cat.SourcesBySchema(schema.ID) {
			for _, tree := range []*btree.Tree{s.rts, s.irts} {
				if err := upgrade(tree, src); err != nil {
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
