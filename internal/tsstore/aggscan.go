package tsstore

import (
	"context"
	"math"
	"slices"
	"sync"

	"odh/internal/model"
)

// The aggregate scan answers COUNT/SUM/AVG/MIN/MAX (optionally grouped by
// source id and/or time bucket) from ValueBlob header summaries instead of
// decoded rows. Each batch record is classified against the query window
// and predicates:
//
//   - excluded: the summary (or zone maps) proves no row can contribute —
//     the blob is skipped without decoding;
//   - fully covered: every row provably lies inside the window, inside one
//     time bucket (when bucketing), and satisfies every predicate — the
//     header summary is folded into the group, zero decode;
//   - sub-bucket foldable: predicates are provable but the blob straddles
//     the bucket grid (or a window edge that lands on the sub-bucket base
//     grid) — when the query grid is a positive integral multiple of the
//     base width, the blob folds from the per-sub-bucket mini-summaries in
//     its header, still zero decode;
//   - boundary: anything unprovable — the blob is decoded (through the
//     decoded-blob cache when enabled) and its rows folded one by one.
//
// Summaries are written from the same round-tripped values a decode
// returns, so a fold is bit-identical to decoding and aggregating, except
// that SUM folds add per-blob subtotals rather than individual values
// (floating-point addition is not associative; exact for integral data).
// A blob written before its header carried a summary (or a sub-bucket
// block) takes the boundary path every time; UpgradeBlobs rewrites such
// records at the current format.

// AggSpec describes one aggregate scan.
type AggSpec struct {
	// T1, T2 bound the window: rows with T1 <= ts < T2 contribute.
	T1, T2 int64
	// NTags is the schema's tag count (sizes per-group arrays).
	NTags int
	// WantTags selects the tags to aggregate (nil = all). The scan also
	// decodes the tags Preds name, so a predicate on a tag outside
	// WantTags filters exactly as it would with the tag selected.
	WantTags []int
	// Preds are conjunctive tag predicates applied to every row.
	Preds []TagPred
	// BucketMs, when positive, groups rows by model.BucketFloor(ts,
	// BucketMs) — the executor's TIME_BUCKET evaluation, so a summary fold
	// replaces it for whole blobs without any grid drift.
	BucketMs int64
	// ByID groups rows by source id.
	ByID bool
	// Opts carries the scan tuning (parallel workers, cache bypass).
	Opts ScanOptions
}

// AggGroup is one output group. Slices are indexed by tag; tags outside
// WantTags hold zeros/sentinels. Min > Max means no non-NULL value was
// seen (SQL MIN/MAX of nothing is NULL).
type AggGroup struct {
	ID      int64 // source id when AggSpec.ByID, else 0
	Bucket  int64 // bucket base when AggSpec.BucketMs > 0, else 0
	Rows    int64 // rows matching window + predicates (COUNT(*))
	NonNull []int64
	Sum     []float64
	Min     []float64
	Max     []float64
}

// AggResult is the outcome of one aggregate scan. Groups appear in
// first-contribution order (deterministic for a given store state and
// spec, parallel or serial).
type AggResult struct {
	Groups []AggGroup
	// SummaryHits counts records answered from a header summary alone
	// (folded or excluded); BytesNotDecoded totals their encoded bytes —
	// the decode work the pushdown avoided.
	SummaryHits     int64
	BytesNotDecoded int64
	// SubBucketFolds counts records that straddled the bucket grid (or a
	// window edge) and folded from per-sub-bucket mini-summaries instead
	// of a boundary decode; SubBucketBytesNotDecoded totals their encoded
	// bytes. Disjoint from SummaryHits/BytesNotDecoded.
	SubBucketFolds           int64
	SubBucketBytesNotDecoded int64
	// BlobBytesRead totals bytes actually decoded (boundary blobs) plus
	// the estimated bytes of buffered points, matching scan accounting.
	BlobBytesRead int64
}

// matchPreds applies the conjunctive predicates to one row's tag values.
func matchPreds(vals []float64, preds []TagPred) bool {
	for _, p := range preds {
		if p.Tag < 0 || p.Tag >= len(vals) {
			return false
		}
		v := vals[p.Tag]
		if model.IsNull(v) {
			return false
		}
		if p.LoStrict {
			if !(v > p.Lo) {
				return false
			}
		} else if !(v >= p.Lo) {
			return false
		}
		if p.HiStrict {
			if !(v < p.Hi) {
				return false
			}
		} else if !(v <= p.Hi) {
			return false
		}
	}
	return true
}

// aggSpecEx is an AggSpec with derived scan state precomputed once.
type aggSpecEx struct {
	spec *AggSpec
	tags []int // tags to fold (deduped, in [0, NTags))
	// walkTags are the tags a boundary record decodes: the folded tags and
	// the tags Preds name (nil = all).
	walkTags []int
	ntags    int
	ctx      context.Context // from Opts.Ctx; observed between records
}

func prepAggSpec(spec *AggSpec) *aggSpecEx {
	sp := &aggSpecEx{spec: spec, ntags: spec.NTags, ctx: spec.Opts.Ctx}
	if spec.WantTags == nil {
		sp.tags = make([]int, spec.NTags)
		for t := range sp.tags {
			sp.tags[t] = t
		}
	} else {
		sp.tags = []int{} // a selection of no tag decodes none, unlike nil
		for _, t := range spec.WantTags {
			if t >= 0 && t < spec.NTags && !slices.Contains(sp.tags, t) {
				sp.tags = append(sp.tags, t)
			}
		}
		sp.walkTags = append([]int{}, sp.tags...)
	}
	for _, p := range spec.Preds {
		if sp.walkTags != nil && p.Tag >= 0 && p.Tag < spec.NTags && !slices.Contains(sp.walkTags, p.Tag) {
			sp.walkTags = append(sp.walkTags, p.Tag)
		}
	}
	return sp
}

// summaryClass is the fold decision for one record.
type summaryClass int

const (
	classBoundary    summaryClass = iota // must decode
	classExcluded                        // contributes nothing, skip decode
	classCovered                         // fold whole summary, skip decode
	classSubFoldable                     // fold per-sub-bucket summaries, skip decode
)

// classifySummary decides how a record folds within one chunk window
// [t1, t2). foldable gates summary folding entirely (false for MG records
// whose rows need per-member attribution or filtering); allowSub
// additionally gates the sub-bucket outcome (false for MG records, whose
// rows are slot-ordered and never carry sub-summaries).
//
// classSubFoldable means the whole-blob predicate proof held but the blob
// straddles the bucket grid or a window edge: the record can fold from
// per-sub-bucket mini-summaries PROVIDED the caller verifies the base
// width of the summaries it actually has via subFoldAligned (a persisted
// v3 block may carry a different base than the store's current config).
func classifySummary(sum *blobSummary, t1, t2 int64, sp *aggSpecEx, foldable, allowSub bool) summaryClass {
	if sum.rows == 0 || sum.lastTS < t1 || sum.firstTS >= t2 {
		return classExcluded
	}
	if !foldable {
		return classBoundary
	}
	for _, tag := range sp.tags {
		if tag >= len(sum.nonNull) {
			return classBoundary
		}
	}
	// Predicates hold for every row only when the tag is never NULL and
	// the blob's min/max sit strictly inside the (exact) bounds.
	for _, p := range sp.spec.Preds {
		if p.Tag < 0 || p.Tag >= len(sum.nonNull) {
			return classBoundary
		}
		if sum.nonNull[p.Tag] != sum.rows {
			return classBoundary
		}
		mn, mx := sum.min[p.Tag], sum.max[p.Tag]
		if mn > mx {
			return classBoundary
		}
		if p.LoStrict {
			if !(mn > p.Lo) {
				return classBoundary
			}
		} else if !(mn >= p.Lo) {
			return classBoundary
		}
		if p.HiStrict {
			if !(mx < p.Hi) {
				return classBoundary
			}
		} else if !(mx <= p.Hi) {
			return classBoundary
		}
	}
	if sum.firstTS >= t1 && sum.lastTS < t2 {
		if w := sp.spec.BucketMs; w <= 0 || model.BucketFloor(sum.firstTS, w) == model.BucketFloor(sum.lastTS, w) {
			return classCovered
		}
	}
	if allowSub {
		return classSubFoldable
	}
	return classBoundary
}

// subFoldAligned reports whether a sub-fold-candidate record may actually
// fold from sub-summaries of the given base width: the query's bucket
// grid (if any) must be a positive integral multiple of the base, and any
// window edge that cuts into the blob's span must land on the base grid —
// then every sub-bucket is provably either entirely inside or entirely
// outside both the window and one query bucket.
func subFoldAligned(sum *blobSummary, t1, t2, base int64, sp *aggSpecEx) bool {
	if base <= 0 {
		return false
	}
	if w := sp.spec.BucketMs; w > 0 && w%base != 0 {
		return false
	}
	if sum.firstTS < t1 && model.BucketFloor(t1, base) != t1 {
		return false
	}
	if sum.lastTS >= t2 && model.BucketFloor(t2, base) != t2 {
		return false
	}
	return true
}

// aggKey identifies one output group.
type aggKey struct{ id, bucket int64 }

// aggPartial is one owner's accumulation state; owners never share one.
type aggPartial struct {
	groups map[aggKey]*AggGroup
	order  []aggKey // first-contribution order
	// lastKey and last are the group folded into most recently: a run of
	// rows of one bucket costs one map lookup.
	lastKey aggKey
	last    *AggGroup
	// sum is the summary of the record being classified, reused from one
	// record to the next.
	sum blobSummary

	summaryHits              int64
	bytesNotDecoded          int64
	subBucketFolds           int64
	subBucketBytesNotDecoded int64
	blobBytesRead            int64
}

func newAggPartial() *aggPartial {
	return &aggPartial{groups: make(map[aggKey]*AggGroup)}
}

func (pt *aggPartial) keyFor(src, ts int64, sp *aggSpecEx) aggKey {
	var k aggKey
	if sp.spec.ByID {
		k.id = src
	}
	if sp.spec.BucketMs > 0 {
		k.bucket = model.BucketFloor(ts, sp.spec.BucketMs)
	}
	return k
}

func (pt *aggPartial) group(k aggKey, sp *aggSpecEx) *AggGroup {
	if pt.last != nil && k == pt.lastKey {
		return pt.last
	}
	g, ok := pt.groups[k]
	if !ok {
		n := sp.ntags
		fl := make([]float64, 3*n)
		g = &AggGroup{
			ID: k.id, Bucket: k.bucket,
			NonNull: make([]int64, n),
			Sum:     fl[:n:n],
			Min:     fl[n : 2*n : 2*n],
			Max:     fl[2*n:],
		}
		for i := range g.Min {
			g.Min[i] = math.Inf(1)
			g.Max[i] = math.Inf(-1)
		}
		pt.groups[k] = g
		pt.order = append(pt.order, k)
	}
	pt.lastKey, pt.last = k, g
	return g
}

// merge folds a partial aggregate over disjoint rows — a blob summary, one
// of its sub-buckets, or another owner's group — into g, for the given tags.
func (g *AggGroup) merge(rows int64, nonNull []int64, sum, min, max []float64, tags []int) {
	g.Rows += rows
	for _, tag := range tags {
		if tag >= len(nonNull) || nonNull[tag] == 0 {
			continue
		}
		g.NonNull[tag] += nonNull[tag]
		g.Sum[tag] += sum[tag]
		if min[tag] < g.Min[tag] {
			g.Min[tag] = min[tag]
		}
		if max[tag] > g.Max[tag] {
			g.Max[tag] = max[tag]
		}
	}
}

// foldSummary folds a fully-covered record's summary into its group.
func (pt *aggPartial) foldSummary(src int64, sum *blobSummary, sp *aggSpecEx) {
	// classifySummary proved every row shares one bucket, so the first
	// timestamp names it.
	pt.group(pt.keyFor(src, sum.firstTS, sp), sp).merge(sum.rows, sum.nonNull, sum.sum, sum.min, sum.max, sp.tags)
}

// foldSubSummaries folds the sub-buckets of one record that lie inside
// [t1, t2) into their groups, in ascending bucket order — the same group
// first-contribution order a row-by-row decode of the (time-ordered)
// blob would produce. subFoldAligned proved each bucket lies entirely
// inside or entirely outside the window, and that every bucket maps to a
// single query bucket; classifySummary proved the predicates hold for
// every row of the blob.
func (pt *aggPartial) foldSubSummaries(src int64, sum *blobSummary, sub *subSummaries, t1, t2 int64, sp *aggSpecEx) {
	for i := range sub.buckets {
		b := &sub.buckets[i]
		if b.rows == 0 {
			continue
		}
		start := sub.start + int64(i)*sub.base
		// In-window test per the alignment proof: an edge inside the blob's
		// span sits on the base grid, so a bucket is out iff it starts
		// before an aligned t1 or ends after an aligned t2.
		if sum.firstTS < t1 && start < t1 {
			continue
		}
		if sum.lastTS >= t2 && start+sub.base > t2 {
			continue
		}
		pt.group(pt.keyFor(src, start, sp), sp).merge(b.rows, b.nonNull, b.sum, b.min, b.max, sp.tags)
	}
}

// foldRow folds one decoded (or buffered) row.
func (pt *aggPartial) foldRow(src, ts int64, vals []float64, sp *aggSpecEx) {
	if !matchPreds(vals, sp.spec.Preds) {
		return
	}
	g := pt.group(pt.keyFor(src, ts, sp), sp)
	g.Rows++
	for _, tag := range sp.tags {
		if tag >= len(vals) {
			continue
		}
		v := vals[tag]
		if model.IsNull(v) {
			continue
		}
		g.NonNull[tag]++
		g.Sum[tag] += v
		if v < g.Min[tag] {
			g.Min[tag] = v
		}
		if v > g.Max[tag] {
			g.Max[tag] = v
		}
	}
}

// aggWalk folds everything one walker hands out into pt, classifying each
// stored record against its summary within the chunk window. An MG record
// may fold from its summary only when rows need no per-member
// attribution: no source filter, no GROUP BY id, and every stored slot
// maps to a known member (row folds drop unknown slots, so a summary fold
// must too); MG rows are slot-ordered and never carry sub-summaries.
func (s *Store) aggWalk(pt *aggPartial, w *walker, sp *aggSpecEx) error {
	defer w.release()
	for !w.done {
		ch, err := w.step()
		if err != nil {
			return err
		}
		for i := range ch.recs {
			if err := s.aggRecord(pt, w, &ch.recs[i], ch.lo, ch.hi, sp); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Store) aggRecord(pt *aggPartial, w *walker, rec *walkRec, lo, hi int64, sp *aggSpecEx) error {
	if rec.buffered != nil {
		// Buffered points carry the same estimated cost as in scans.
		for _, p := range rec.buffered {
			pt.blobBytesRead += pointBlobBytes(len(p.Values))
			pt.foldRow(p.Source, p.TS, p.Values, sp)
		}
		return nil
	}
	if !rec.hdr.overlaps(sp.spec.Preds) {
		s.zoneSkips.Add(1)
		return nil
	}
	mg := rec.home.tree == s.mg
	src := rec.home.id
	if mg {
		src = 0
	}
	if sum := &pt.sum; rec.hdr.summaryInto(rec.ts, sum) {
		foldable := !mg || (w.slot == allMembers && !sp.spec.ByID && sum.members <= len(w.members))
		switch classifySummary(sum, lo, hi, sp, foldable, !mg) {
		case classExcluded:
			if rec.hit == nil {
				pt.summaryHits++
				pt.bytesNotDecoded += rec.size()
			}
			return nil
		case classCovered:
			pt.summaryHits++
			pt.bytesNotDecoded += rec.size()
			pt.foldSummary(src, sum, sp)
			return nil
		case classSubFoldable:
			// A blob folds from its persisted mini-summaries with zero
			// decode (stubs included: the block survives stubbing); one
			// without a block (MG, or a span past the cap) decodes. The
			// block is materialised only for a window on its grid.
			if !subFoldAligned(sum, lo, hi, rec.hdr.subBase, sp) {
				break
			}
			if sub := rec.hdr.subSummaries(sum); sub != nil {
				pt.subBucketFolds++
				pt.subBucketBytesNotDecoded += rec.size()
				pt.foldSubSummaries(src, sum, sub, lo, hi, sp)
				return nil
			}
		}
	}
	// Boundary: per-row resolution. A stub here fails loudly (its rows are
	// gone), never under-counts.
	batch, err := w.decode(rec, lo, hi)
	if batch == nil {
		return err
	}
	if rec.hit == nil {
		pt.blobBytesRead += rec.size()
	}
	w.eachRow(rec, batch, lo, hi, func(src, ts int64, vals []float64) { pt.foldRow(src, ts, vals, sp) })
	return nil
}

// maxScanWorkers caps an aggregate's fan-out regardless of options.
const maxScanWorkers = 64

func clampWorkers(n int) int {
	if n > maxScanWorkers {
		return maxScanWorkers
	}
	if n < 1 {
		return 1
	}
	return n
}

// runAggParts walks each owner into its own partial (on up to workers
// goroutines when there is more than one owner) and merges the partials
// in owner order. A group appears where its first contribution arrives in
// the serial walk — owner by owner, record by record — and each group's
// partials add up in owner order, so serial and parallel runs return the
// same groups in the same order, bit for bit.
func (s *Store) runAggParts(ws []*walker, sp *aggSpecEx, workers int) (*AggResult, error) {
	partials := make([]*aggPartial, len(ws))
	for i := range partials {
		partials[i] = newAggPartial()
	}
	if workers > 1 && len(ws) > 1 {
		if workers > len(ws) {
			workers = len(ws)
		}
		sem := make(chan struct{}, workers)
		errs := make([]error, len(ws))
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func(i int, w *walker) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				// Workers observe ctx between owners: a canceled query
				// stops folding instead of racing the pool to completion.
				if err := ctxErr(sp.ctx); err != nil {
					errs[i] = err
					return
				}
				errs[i] = s.aggWalk(partials[i], w, sp)
			}(i, w)
		}
		wg.Wait()
		s.parallelScans.Add(1)
		s.parallelParts.Add(int64(len(ws)))
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for i, w := range ws {
			if err := ctxErr(sp.ctx); err != nil {
				return nil, err
			}
			if err := s.aggWalk(partials[i], w, sp); err != nil {
				return nil, err
			}
		}
	}
	res := &AggResult{}
	idx := make(map[aggKey]int)
	for _, pt := range partials {
		res.SummaryHits += pt.summaryHits
		res.BytesNotDecoded += pt.bytesNotDecoded
		res.SubBucketFolds += pt.subBucketFolds
		res.SubBucketBytesNotDecoded += pt.subBucketBytesNotDecoded
		res.BlobBytesRead += pt.blobBytesRead
		for _, k := range pt.order {
			g := pt.groups[k]
			if j, ok := idx[k]; ok {
				res.Groups[j].merge(g.Rows, g.NonNull, g.Sum, g.Min, g.Max, sp.tags)
				continue
			}
			idx[k] = len(res.Groups)
			res.Groups = append(res.Groups, *g)
		}
	}
	s.summaryHits.Add(res.SummaryHits)
	s.bytesNotDecoded.Add(res.BytesNotDecoded)
	s.subBucketFolds.Add(res.SubBucketFolds)
	s.subBucketBytesNotDecoded.Add(res.SubBucketBytesNotDecoded)
	return res, nil
}

// AggregateHistorical computes the aggregates of one source over
// [spec.T1, spec.T2): one walk, on the calling goroutine. It stays because
// the benchmark harness calls it by this name — it is AggregateMulti of
// one id, not a second aggregate path.
func (s *Store) AggregateHistorical(source int64, spec AggSpec) (*AggResult, error) {
	return s.AggregateMulti([]int64{source}, spec)
}

// AggregateMulti aggregates an explicit source list (`id = n` and the
// id IN (...) pushdown), the pushdown twin of MultiHistoricalScanOpts: one
// walk per source, fanned out across sources. An id the catalog does not
// know contributes nothing.
func (s *Store) AggregateMulti(sources []int64, spec AggSpec) (*AggResult, error) {
	sp := prepAggSpec(&spec)
	return s.runAggParts(s.sourceWalkers(sources, spec.T1, spec.T2, sp.walkTags, spec.Opts), sp, clampWorkers(spec.Opts.Workers))
}

// AggregateSlice aggregates every source of a schema over the window, the
// pushdown twin of SliceScanOpts.
func (s *Store) AggregateSlice(schemaID int64, spec AggSpec) (*AggResult, error) {
	sp := prepAggSpec(&spec)
	return s.runAggParts(s.sliceWalkers(schemaID, spec.T1, spec.T2, sp.walkTags, spec.Opts), sp, clampWorkers(spec.Opts.Workers))
}
