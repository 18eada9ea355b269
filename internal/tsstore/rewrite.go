package tsstore

import (
	"odh/internal/btree"
	"odh/internal/keyenc"
	"odh/internal/model"
)

// stored is one batch record: its base timestamp (the time part of its
// key) and its encoded ValueBlob.
type stored struct {
	ts   int64
	blob []byte
}

// latch returns the shard whose lock covers the key range (tree, id): the
// range's owner is the group for ts.mg and for the per-source range of a
// source that ingests through MG, else the source itself (see walk.go).
func (s *Store) latch(tree *btree.Tree, id int64) *shard {
	if tree != s.mg {
		if ds, ok := s.cat.Source(id); ok {
			id = ownerOf(ds)
		}
	}
	return s.shardFor(id)
}

// blobSpan reads a record's row count and timestamp bounds: from the
// summary header, or by decoding the timestamps of a legacy blob. ok is
// false for an unreadable record. The bounds are true minima and maxima
// (MG member offsets are stored in slot order, not time order).
func blobSpan(r stored) (rows, first, last int64, ok bool) {
	h, _ := parseBlobHeader(r.blob)
	if rows, first, last, ok = h.span(r.ts); ok {
		return rows, first, last, true
	}
	batch, err := h.decodeAll(r.ts, []int{})
	if err != nil {
		return 0, r.ts, r.ts, false
	}
	first, last = r.ts, r.ts
	for i, ts := range batch.Timestamps {
		if i == 0 || ts < first {
			first = ts
		}
		if i == 0 || ts > last {
			last = ts
		}
	}
	return int64(len(batch.Timestamps)), first, last, true
}

// recordStats is one record's contribution to its home's statistics, read
// from its header: counts, row bounds, and the span bounds of its tier —
// its reach is measured from its key, which is where a seek must land to
// meet it.
func recordStats(r stored) model.SourceStats {
	rows, first, last, _ := blobSpan(r)
	st := model.SourceStats{
		BatchCount: 1, PointCount: rows, BlobBytes: int64(len(r.blob)),
		FirstTS: first, LastTS: last, MaxSpanMs: last - r.ts,
	}
	if BlobTier(r.blob) == TierHot {
		st.HotSpanMs = st.MaxSpanMs
	} else {
		st.HasCold, st.ColdLastTS = true, r.ts
	}
	return st
}

// rewriteLocked is the only writer of the three batch trees: for the key
// range (tree, id) it removes the records in del and stores the records
// in put, drops their cached decodes, and applies the catalog statistics
// delta, with row counts and bounds read from the records themselves. A
// put at the key of a del replaces that record in place. The caller
// holds s.latch(tree, id) exclusively, which makes the whole rewrite
// atomic to every walker step of the range's owner.
func (s *Store) rewriteLocked(tree *btree.Tree, id int64, del, put []stored) error {
	var minus, plus model.SourceStats
	subtract := func(r stored) {
		rows, _, _, _ := blobSpan(r)
		minus.BatchCount--
		minus.PointCount -= rows
		minus.BlobBytes -= int64(len(r.blob))
	}
	// The cached decode goes even when the tree operation failed: a failed
	// operation may still have dirtied pages.
	invalidate := func(ts int64) {
		if s.cache != nil {
			s.cache.invalidateKey(blobKey{tree: s.treeID(tree), source: id, ts: ts})
		}
	}
	var olds, news map[int64]stored // only a put at a del's key needs them
	if len(del) > 0 && len(put) > 0 {
		olds, news = byTS(del), byTS(put)
	}
	apply := func() error {
		for _, r := range del {
			if _, ok := news[r.ts]; ok {
				continue // replaced in place by the put below
			}
			err := tree.Delete(keyenc.SourceTime(id, r.ts))
			invalidate(r.ts)
			if err != nil {
				return err
			}
			subtract(r)
		}
		for _, r := range put {
			err := tree.Put(keyenc.SourceTime(id, r.ts), r.blob)
			invalidate(r.ts)
			if err != nil {
				return err
			}
			if old, ok := olds[r.ts]; ok {
				subtract(old)
			}
			plus.Merge(recordStats(r))
		}
		return nil
	}
	err := apply()
	// The statistics follow what actually left and entered the tree, also
	// after a failure part-way. Removals merge first so that emptying a
	// range resets its bounds to those of the new records.
	update := s.cat.UpdateStats
	if tree == s.mg {
		update = s.cat.UpdateGroupStats
	}
	for _, delta := range []model.SourceStats{minus, plus} {
		if delta != (model.SourceStats{}) {
			if uerr := update(id, delta); uerr != nil && err == nil {
				err = uerr
			}
		}
	}
	return err
}

// byTS indexes records by base timestamp.
func byTS(recs []stored) map[int64]stored {
	m := make(map[int64]stored, len(recs))
	for _, r := range recs {
		m[r.ts] = r
	}
	return m
}

// rewriteRange is the maintenance entry to rewriteLocked: under the
// range's latch it reads the records of (tree, id) keyed in [lo, hi),
// lets plan choose what to remove and what to store, applies that, and
// returns what it applied. Nothing is applied (and nothing returned) when
// a put would land on the key of a record the plan keeps — after
// out-of-order ingest a re-split run can share a first timestamp with a
// record outside the edit, and Put would overwrite it. The collision is
// vanishingly rare; the pass skips the range this round.
func (s *Store) rewriteRange(tree *btree.Tree, id, lo, hi int64, plan func(recs []stored) (del, put []stored, err error)) (del, put []stored, err error) {
	sh := s.latch(tree, id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	recs, err := readRange(&home{tree: tree, id: id}, lo, hi)
	if err != nil {
		return nil, nil, err
	}
	if del, put, err = plan(recs); err != nil {
		return nil, nil, err
	}
	if len(put) > 0 {
		olds, news := byTS(del), byTS(put)
		for _, r := range recs {
			if _, stored := news[r.ts]; stored {
				if _, removed := olds[r.ts]; !removed {
					return nil, nil, nil
				}
			}
		}
	}
	if err := s.rewriteLocked(tree, id, del, put); err != nil {
		return nil, nil, err
	}
	return del, put, nil
}

// blobBytes totals the encoded size of records.
func blobBytes(recs []stored) (n int64) {
	for _, r := range recs {
		n += int64(len(r.blob))
	}
	return n
}
