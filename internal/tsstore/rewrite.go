package tsstore

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

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

// blobSpan reads a record's row count and timestamp bounds from its
// summary header. ok is false for a record without one — unreadable, or
// written before the summary format, which a served store does not hold —
// whose bounds are then its key. The bounds are true minima and maxima
// (MG member offsets are stored in slot order, not time order).
func blobSpan(r stored) (rows, first, last int64, ok bool) {
	h, _ := parseBlobHeader(r.blob)
	return h.span(r.ts)
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

// change is one key's edit in a rewrite: the record stored there, if any,
// and the record to store in its place; nil removes it.
type change struct {
	ts       int64
	old, new []byte
}

// rewriteLocked is the only writer of the three batch trees (apply its one
// caller): for the key range (tree, id) it applies changes in key order —
// the removals, then the stores, one at a key that holds a record replacing
// it in place — drops their cached decodes, and applies the catalog
// statistics delta, with row counts and bounds read from the records
// themselves. The caller holds the latch of the range's owner exclusively,
// which makes the whole rewrite atomic to every walker step of the range's
// owner.
func (s *Store) rewriteLocked(tree *btree.Tree, id int64, changes []change) error {
	var minus, plus model.SourceStats
	apply := func() (err error) {
		for _, stores := range []bool{false, true} {
			for _, c := range changes {
				if (c.new != nil) != stores {
					continue
				}
				if key := keyenc.SourceTime(id, c.ts); stores {
					err = tree.Put(key, c.new)
				} else {
					err = tree.Delete(key)
				}
				// The cached decode goes even when the tree operation failed: a
				// failed operation may still have dirtied pages.
				if s.cache != nil {
					s.cache.invalidateKey(blobKey{tree: s.treeID(tree), source: id, ts: c.ts})
				}
				if err != nil {
					return err
				}
				if c.old != nil {
					rows, _, _, _ := blobSpan(stored{ts: c.ts, blob: c.old})
					minus.BatchCount--
					minus.PointCount -= rows
					minus.BlobBytes -= int64(len(c.old))
				}
				if stores {
					plus.Merge(recordStats(stored{ts: c.ts, blob: c.new}))
				}
			}
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

// apply is where every write to a batch tree ends — the ingest flush, the
// MG row flush and maintenance plan under the owner's latch, then apply the
// plans here, in order, per-source ranges before the MG range: rows moving
// out of MG that fail part-way are duplicated, never lost. res, when not
// nil, counts the changes; rederive re-derives each range's statistics.
func (s *Store) apply(plans []*rangePlan, res *MaintenanceResult, rederive bool) error {
	for _, p := range plans {
		changes := p.plan()
		for _, c := range changes {
			if res != nil && c.old != nil {
				res.Deleted++
				res.BytesBefore += int64(len(c.old))
			}
			if res != nil && c.new != nil {
				res.Rewritten++
				res.BytesAfter += int64(len(c.new))
			}
		}
		if err := s.rewriteLocked(p.tree, p.id, changes); err != nil {
			return err
		}
		if !rederive {
			continue
		}
		var st model.SourceStats
		for _, r := range p.records() {
			st.Merge(recordStats(r))
		}
		set := s.cat.SetStats
		if p.ds == nil {
			set = s.cat.SetGroupStats
		}
		moved, err := set(p.id, st)
		if moved {
			res.StatsMoved++
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rangePlan is a rewrite of one key range (tree, id) in the making. at
// answers what the plan has at a key — what it put there, else what it
// read, else, outside the keys read, what the tree holds — so that a put
// sees what it lands on. The caller holds the range's latch throughout.
type rangePlan struct {
	s        *Store
	tree     *btree.Tree
	id       int64             // source id, or group id in ts.mg
	ds       *model.DataSource // nil in ts.mg
	schema   *model.SchemaType
	lo, hi   int64            // every record keyed in [lo, hi) is in old
	old, now map[int64][]byte // as stored; as planned where that differs (nil: removed)
	spilled  []*rangePlan     // ts.mg: the puts of member samples a merge displaced, in slot order
}

func (s *Store) newPlan(tree *btree.Tree, id int64, ds *model.DataSource, schema *model.SchemaType) *rangePlan {
	return &rangePlan{s: s, tree: tree, id: id, ds: ds, schema: schema, old: map[int64][]byte{}, now: map[int64][]byte{}}
}

// at returns the record the plan has at ts.
func (p *rangePlan) at(ts int64) ([]byte, bool, error) {
	if blob, ok := p.now[ts]; ok {
		return blob, blob != nil, nil
	}
	if blob, ok := p.old[ts]; ok || (ts >= p.lo && ts < p.hi) {
		return blob, ok, nil
	}
	blob, err := p.tree.Get(keyenc.SourceTime(p.id, ts))
	if err == nil {
		p.old[ts] = blob
	} else if err == btree.ErrNotFound {
		err = nil
	}
	return blob, blob != nil, err
}

// records returns the plan's records keyed in [lo, hi), in key order.
func (p *rangePlan) records() (out []stored) {
	for ts := range p.old {
		if _, moved := p.now[ts]; !moved && ts >= p.lo && ts < p.hi {
			out = append(out, stored{ts: ts, blob: p.old[ts]})
		}
	}
	for ts, blob := range p.now {
		if blob != nil && ts >= p.lo && ts < p.hi {
			out = append(out, stored{ts: ts, blob: blob})
		}
	}
	slices.SortFunc(out, func(a, b stored) int { return cmp.Compare(a.ts, b.ts) })
	return out
}

// put plans rec at its key under the collision rule, which every writer of
// the batch trees shares: the record the plan has there is never
// overwritten. The two merge into one record of the later tier (mergeRows
// keeps the rows), or, when one is a stub and has no rows to merge, the
// stub steps aside a millisecond, under the same rule — a stub's key is
// only where a seek finds it. In ts.mg they merge by member slot
// (mergeRow). pts are rec's rows (an MG record's: mgRow.samples).
func (p *rangePlan) put(rec stored, pts []model.Point) error {
	occ, taken, err := p.at(rec.ts)
	if err != nil || !taken {
		p.now[rec.ts] = rec.blob
		return err
	}
	if p.ds == nil {
		return p.mergeRow(rec.ts, occ, pts)
	}
	if BlobTier(occ) == TierStub || BlobTier(rec.blob) == TierStub {
		if BlobTier(occ) != TierStub {
			occ, rec.blob = rec.blob, occ
		}
		moved, ok := rekeyStub(occ, rec.ts, rec.ts-1)
		if !ok {
			return p.corrupt(rec.ts, "a put meets a stub without a summary")
		}
		p.now[rec.ts] = rec.blob
		return p.put(stored{ts: rec.ts - 1, blob: moved}, nil)
	}
	picked, rows := decodeRecords(p.id, []stored{{ts: rec.ts, blob: occ}})
	if len(picked) == 0 {
		return p.corrupt(rec.ts, "a put meets a record that does not decode")
	}
	opts := p.s.encodeOptsFor(p.schema)
	if BlobTier(occ) == TierCold || BlobTier(rec.blob) == TierCold {
		opts = p.s.coldOpts(p.schema)
	}
	p.now[rec.ts] = encodeRun(p.ds, p.schema, mergeRows(rows, pts, p.ds.Regular), opts)
	return nil
}

// mergeRow is the MG half of the collision rule: an arriving row merges
// with the record at its key by member slot. A member in both keeps the
// arriving sample in the record; the stored one, a distinct write, goes to
// the member's per-source range under the same rule, in slot order. Both
// rows span [key, key+window), so the merged one does too. MG records never
// tier: an occupant that does not decode as an MG row fails the put.
func (p *rangePlan) mergeRow(ts int64, occ []byte, pts []model.Point) error {
	batch, err := DecodeBlob(occ, ts, nil)
	if err != nil || batch.Structure != model.MG {
		return p.corrupt(ts, "an MG row meets a record that does not decode as one")
	}
	merged := slices.Clone(pts)
	for i, slot := range batch.Slots {
		if slot >= len(merged) {
			merged = append(merged, make([]model.Point, slot+1-len(merged))...)
		}
		old := model.Point{Source: merged[slot].Source, TS: batch.Timestamps[i], Values: batch.Rows[i]}
		if merged[slot].Values == nil {
			merged[slot] = old
			continue
		}
		ds, ok := p.s.cat.Source(old.Source)
		if !ok {
			return fmt.Errorf("tsstore: %s source=%d ts=%d: member %d is not in the catalog", p.tree.Name(), p.id, ts, old.Source)
		}
		m, err := p.s.planRun(ds, p.schema, []model.Point{old})
		if err != nil {
			return err
		}
		p.spilled = append(p.spilled, m)
	}
	p.now[ts] = encodeRow(ts, merged, p.schema, p.s.encodeOptsFor(p.schema))
	return nil
}

// encodeRow encodes an MG row keyed at key from its samples, one per member
// slot, nil Values where the member has none.
func encodeRow(key int64, samples []model.Point, schema *model.SchemaType, opts encodeOpts) []byte {
	present := make([]bool, len(samples))
	values := make([][]float64, len(samples))
	offsets := make([]int64, len(samples))
	for slot, p := range samples {
		if p.Values != nil {
			present[slot], values[slot], offsets[slot] = true, p.Values, p.TS-key
		}
	}
	return EncodeMG(present, values, offsets, len(schema.Tags), opts)
}

// corrupt is the error of a plan that meets, at ts, a record it cannot
// work with: the plan refuses, and the tree stays as it was.
func (p *rangePlan) corrupt(ts int64, what string) error {
	return fmt.Errorf("tsstore: %s source=%d ts=%d: %s: %w", p.tree.Name(), p.id, ts, what, ErrCorruptBlob)
}

// putRuns puts the source's points as records of at most batchSize points
// (splitBatchRuns). It sorts pts first, stably, so each record's key is its
// smallest timestamp whatever order the caller gathered them in: a member's
// rows come from its group's MG records in key order, and an out-of-order
// member sits in records whose key order is not its time order.
func (p *rangePlan) putRuns(pts []model.Point, opts encodeOpts, batchSize int) error {
	sortPoints(pts)
	for _, run := range splitBatchRuns(pts, p.ds, batchSize) {
		if err := p.put(stored{ts: run[0].TS, blob: encodeRun(p.ds, p.schema, run, opts)}, run); err != nil {
			return err
		}
	}
	return nil
}

// plan returns the plan's changes in key order. A record it leaves as it
// was — also one it removed and put back byte for byte — is not among
// them, so a plan that changes nothing applies nothing.
func (p *rangePlan) plan() (changes []change) {
	for ts, blob := range p.now {
		if old, had := p.old[ts]; (had || blob != nil) && !(had && blob != nil && bytes.Equal(old, blob)) {
			changes = append(changes, change{ts: ts, old: old, new: blob})
		}
	}
	slices.SortFunc(changes, func(a, b change) int { return cmp.Compare(a.ts, b.ts) })
	return changes
}

// mergeRows is the row half of the collision rule: the rows of one record
// when a sorted run arrives at the key of a stored one, sorted, stored rows
// first at a shared timestamp. An irregular source may sample twice at one
// timestamp, so every row stays; a regular source samples once per
// timestamp, so an arriving sample replaces the stored one at its own
// timestamp and every other stored row stays.
func mergeRows(old, arriving []model.Point, regular bool) []model.Point {
	replaced := map[int64]bool{}
	for _, p := range arriving {
		replaced[p.TS] = regular
	}
	out := make([]model.Point, 0, len(old)+len(arriving))
	for _, p := range old {
		if !replaced[p.TS] {
			out = append(out, p)
		}
	}
	out = append(out, arriving...)
	sortPoints(out)
	return out
}

// decodeRecords decodes records into one timestamp-sorted point run — the
// read half of every content-preserving rewrite. It returns the records it
// decoded; unreadable ones are left for fsck, never destroyed.
func decodeRecords(source int64, recs []stored) (picked []stored, pts []model.Point) {
	for _, r := range recs {
		batch, err := DecodeBlob(r.blob, r.ts, nil)
		if err != nil {
			continue
		}
		for i, ts := range batch.Timestamps {
			pts = append(pts, model.Point{Source: source, TS: ts, Values: batch.Rows[i]})
		}
		picked = append(picked, r)
	}
	// Batches can overlap after out-of-order ingest: restore global order,
	// stably, so rows at one timestamp keep their record order.
	sortPoints(pts)
	return picked, pts
}

// sortPoints sorts points by timestamp, stably.
func sortPoints(pts []model.Point) {
	slices.SortStableFunc(pts, func(a, b model.Point) int { return cmp.Compare(a.TS, b.TS) })
}

// encodeRun encodes one batch run in the source's per-source structure.
func encodeRun(ds *model.DataSource, schema *model.SchemaType, run []model.Point, opts encodeOpts) []byte {
	if ds.Regular {
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
func splitBatchRuns(pts []model.Point, ds *model.DataSource, batchSize int) [][]model.Point {
	maxSpan := int64(0)
	if ds.IntervalMs > 0 {
		maxSpan = int64(batchSize) * ds.IntervalMs
	}
	var runs [][]model.Point
	start := 0
	for i := 1; i < len(pts); i++ {
		gap := ds.Regular && pts[i].TS != pts[i-1].TS+ds.IntervalMs
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
