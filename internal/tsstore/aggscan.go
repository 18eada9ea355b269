package tsstore

import (
	"context"
	"fmt"
	"math"
	"sort"
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

// TagPred is one pushed-down predicate bound on a tag, kept exact
// (strictness preserved) so full coverage can be proven from a summary.
// Rows where the tag is NULL never match. Use ±Inf for open sides.
type TagPred struct {
	Tag                int
	Lo, Hi             float64
	LoStrict, HiStrict bool // true = exclusive bound
}

// AggSpec describes one aggregate scan.
type AggSpec struct {
	// T1, T2 bound the window: rows with T1 <= ts < T2 contribute.
	T1, T2 int64
	// NTags is the schema's tag count (sizes per-group arrays).
	NTags int
	// WantTags selects the tags to aggregate (nil = all). Must include
	// every tag named by Preds, like a scan's wantTags must cover the
	// residual filter.
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
	spec  *AggSpec
	tags  []int      // tags to fold (sorted, deduped, in [0, NTags))
	zones []TagRange // inclusive hull of Preds for zone-map skipping
	ntags int
	ctx   context.Context // from Opts.Ctx; observed between records
}

func prepAggSpec(spec *AggSpec) *aggSpecEx {
	sp := &aggSpecEx{spec: spec, ntags: spec.NTags, ctx: spec.Opts.Ctx}
	if spec.WantTags == nil {
		sp.tags = make([]int, spec.NTags)
		for t := range sp.tags {
			sp.tags[t] = t
		}
	} else {
		seen := make(map[int]bool, len(spec.WantTags))
		for _, t := range spec.WantTags {
			if t >= 0 && t < spec.NTags && !seen[t] {
				seen[t] = true
				sp.tags = append(sp.tags, t)
			}
		}
	}
	for _, p := range spec.Preds {
		// Exclusive bounds loosen to inclusive: safe for skipping, never
		// used to prove coverage (classifySummary keeps the strictness).
		sp.zones = append(sp.zones, TagRange{Tag: p.Tag, Lo: p.Lo, Hi: p.Hi})
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

// classifySummary decides how a record folds within one part range
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

// aggOrder places a contribution in the serial fold order: the part's
// owner ordinal, then the contributing record's base timestamp and home
// (the order a walker hands records out). Parts of one owner split the
// window by row timestamp, so a record straddling two parts contributes
// to both; ordering groups by their first contribution's aggOrder rather
// than by part makes the emission order the serial one however the
// window was split.
type aggOrder struct {
	owner int
	ts    int64
	home  int
}

func (a aggOrder) before(b aggOrder) bool {
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.home < b.home
}

// aggPartial is one part's accumulation state; parts never share one.
type aggPartial struct {
	groups map[aggKey]*AggGroup
	order  []aggKey
	first  []aggOrder // parallel to order: each group's first contribution
	at     aggOrder   // the contribution being folded

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
	if g, ok := pt.groups[k]; ok {
		return g
	}
	g := &AggGroup{
		ID: k.id, Bucket: k.bucket,
		NonNull: make([]int64, sp.ntags),
		Sum:     make([]float64, sp.ntags),
		Min:     make([]float64, sp.ntags),
		Max:     make([]float64, sp.ntags),
	}
	for i := range g.Min {
		g.Min[i] = math.Inf(1)
		g.Max[i] = math.Inf(-1)
	}
	pt.groups[k] = g
	pt.order = append(pt.order, k)
	pt.first = append(pt.first, pt.at)
	return g
}

// merge folds a partial aggregate over disjoint rows — a blob summary, one
// of its sub-buckets, or another part's group — into g, for the given tags.
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

// aggPart is one independently runnable slice of an aggregate scan.
type aggPart func(*aggPartial) error

// aggWalkPart folds everything one walker hands out, classifying each
// stored record against its summary within the chunk window. An MG record
// may fold from its summary only when rows need no per-member
// attribution: no source filter, no GROUP BY id, and every stored slot
// maps to a known member (row folds drop unknown slots, so a summary fold
// must too); MG rows are slot-ordered and never carry sub-summaries.
func (s *Store) aggWalkPart(w *walker, owner int, sp *aggSpecEx) aggPart {
	return func(pt *aggPartial) error {
		defer w.release()
		for !w.done {
			ch, err := w.step()
			if err != nil {
				return err
			}
			for i := range ch.recs {
				pt.at = aggOrder{owner: owner, ts: ch.recs[i].ts, home: ch.recs[i].home.seq}
				if err := s.aggRecord(pt, w, &ch.recs[i], ch.lo, ch.hi, sp); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func (s *Store) aggRecord(pt *aggPartial, w *walker, rec *walkRec, lo, hi int64, sp *aggSpecEx) error {
	if rec.buffered != nil {
		// Buffered points carry the same estimated cost as in scans.
		for _, p := range rec.buffered {
			pt.blobBytesRead += pointBlobBytes(len(p.Values))
			pt.at.ts = p.TS // each buffered row is its own contribution
			pt.foldRow(p.Source, p.TS, p.Values, sp)
		}
		return nil
	}
	if !rec.hdr.overlaps(sp.zones) {
		s.zoneSkips.Add(1)
		return nil
	}
	mg := rec.home.tree == s.mg
	src := rec.home.id
	if mg {
		src = 0
	}
	if sum := rec.hdr.summary(rec.ts); sum != nil {
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
			// without a block (MG, or a span past the cap) decodes.
			if sub := rec.hdr.subSummaries(sum); sub != nil && subFoldAligned(sum, lo, hi, sub.base, sp) {
				pt.subBucketFolds++
				pt.subBucketBytesNotDecoded += rec.size()
				pt.foldSubSummaries(src, sum, sub, lo, hi, sp)
				return nil
			}
		}
	}
	// Boundary: per-row resolution. A stub here fails loudly (its rows are
	// gone), never under-counts.
	batch, _, err := w.decode(rec, lo, hi)
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

// scanRange is one ts-disjoint slice of a scan window.
type scanRange struct{ t1, t2 int64 }

// splitScanRange partitions [t1, t2) into up to k ts-disjoint sub-ranges
// that cover exactly the same window. Boundaries are spread over the
// source's recorded data range so the split lands where batches actually
// are; a window (or data range) too small to split returns one range.
// Because the sub-ranges partition by timestamp, concatenating their
// scans yields exactly the rows of the full-range scan, in the same
// order: equal-timestamp points always land in the same sub-range.
func splitScanRange(t1, t2 int64, stats model.SourceStats, k int) []scanRange {
	if k <= 1 || stats.PointCount == 0 {
		return []scanRange{{t1, t2}}
	}
	lo, hi := stats.FirstTS, stats.LastTS
	if hi < math.MaxInt64 {
		hi++ // cover LastTS itself; ranges are half-open
	}
	if lo < t1 {
		lo = t1
	}
	if hi > t2 {
		hi = t2
	}
	if hi <= lo {
		return []scanRange{{t1, t2}}
	}
	span := uint64(hi) - uint64(lo)
	if span < uint64(k)*2 || span > 1<<62 {
		return []scanRange{{t1, t2}}
	}
	step := span / uint64(k)
	out := make([]scanRange, 0, k)
	prev := t1
	for i := 1; i < k; i++ {
		b := lo + int64(step*uint64(i))
		out = append(out, scanRange{prev, b})
		prev = b
	}
	return append(out, scanRange{prev, t2})
}

// historicalAggParts decomposes one source's aggregate into one walk per
// ts-disjoint range.
func (s *Store) historicalAggParts(source int64, owner int, sp *aggSpecEx, workers int) ([]aggPart, error) {
	ds, ok := s.cat.Source(source)
	if !ok {
		return nil, fmt.Errorf("tsstore: unknown data source %d", source)
	}
	spec := sp.spec
	var parts []aggPart
	for _, r := range splitScanRange(spec.T1, spec.T2, s.cat.Stats(source), workers) {
		parts = append(parts, s.aggWalkPart(s.sourceWalker(ds, r.t1, r.t2, spec.WantTags, spec.Opts), owner, sp))
	}
	return parts, nil
}

// runAggParts executes the parts (on the worker pool when allowed) and
// merges their partials, emitting groups in first-contribution order (see
// aggOrder), which is identical between serial and parallel runs.
func (s *Store) runAggParts(parts []aggPart, sp *aggSpecEx, workers int) (*AggResult, error) {
	partials := make([]*aggPartial, len(parts))
	for i := range partials {
		partials[i] = newAggPartial()
	}
	if workers > 1 && len(parts) > 1 {
		if workers > len(parts) {
			workers = len(parts)
		}
		sem := make(chan struct{}, workers)
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for i, p := range parts {
			wg.Add(1)
			go func(i int, p aggPart) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				// Workers observe ctx between parts: a canceled query
				// stops folding instead of racing the pool to completion.
				if err := ctxErr(sp.ctx); err != nil {
					errs[i] = err
					return
				}
				errs[i] = p(partials[i])
			}(i, p)
		}
		wg.Wait()
		s.parallelScans.Add(1)
		s.parallelParts.Add(int64(len(parts)))
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for i, p := range parts {
			if err := ctxErr(sp.ctx); err != nil {
				return nil, err
			}
			if err := p(partials[i]); err != nil {
				return nil, err
			}
		}
	}
	res := &AggResult{}
	idx := make(map[aggKey]int)
	var first []aggOrder // parallel to res.Groups
	for _, pt := range partials {
		res.SummaryHits += pt.summaryHits
		res.BytesNotDecoded += pt.bytesNotDecoded
		res.SubBucketFolds += pt.subBucketFolds
		res.SubBucketBytesNotDecoded += pt.subBucketBytesNotDecoded
		res.BlobBytesRead += pt.blobBytesRead
		for i, k := range pt.order {
			g := pt.groups[k]
			j, ok := idx[k]
			if !ok {
				idx[k] = len(res.Groups)
				res.Groups = append(res.Groups, *g)
				first = append(first, pt.first[i])
				continue
			}
			if pt.first[i].before(first[j]) {
				first[j] = pt.first[i]
			}
			res.Groups[j].merge(g.Rows, g.NonNull, g.Sum, g.Min, g.Max, sp.tags)
		}
	}
	perm := make([]int, len(first))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return first[perm[a]].before(first[perm[b]]) })
	groups := make([]AggGroup, len(perm))
	for i, j := range perm {
		groups[i] = res.Groups[j]
	}
	res.Groups = groups
	s.summaryHits.Add(res.SummaryHits)
	s.bytesNotDecoded.Add(res.BytesNotDecoded)
	s.subBucketFolds.Add(res.SubBucketFolds)
	s.subBucketBytesNotDecoded.Add(res.SubBucketBytesNotDecoded)
	return res, nil
}

// AggregateHistorical computes the aggregates of one source over
// [spec.T1, spec.T2), the pushdown twin of HistoricalScanOpts.
func (s *Store) AggregateHistorical(source int64, spec AggSpec) (*AggResult, error) {
	sp := prepAggSpec(&spec)
	workers := clampWorkers(spec.Opts.Workers)
	parts, err := s.historicalAggParts(source, 0, sp, workers)
	if err != nil {
		return nil, err
	}
	return s.runAggParts(parts, sp, workers)
}

// AggregateMulti aggregates an explicit source list (the id IN (...)
// pushdown). Each source stays serial inside; the fan-out is across
// sources. Unknown ids contribute nothing.
func (s *Store) AggregateMulti(sources []int64, spec AggSpec) (*AggResult, error) {
	sp := prepAggSpec(&spec)
	workers := clampWorkers(spec.Opts.Workers)
	var parts []aggPart
	for i, src := range sources {
		p, err := s.historicalAggParts(src, i, sp, 1)
		if err != nil {
			continue
		}
		parts = append(parts, p...)
	}
	return s.runAggParts(parts, sp, workers)
}

// AggregateSlice aggregates every source of a schema over the window, the
// pushdown twin of SliceScanOpts.
func (s *Store) AggregateSlice(schemaID int64, spec AggSpec) (*AggResult, error) {
	sp := prepAggSpec(&spec)
	workers := clampWorkers(spec.Opts.Workers)
	var parts []aggPart
	for i, w := range s.sliceWalkers(schemaID, spec.T1, spec.T2, spec.WantTags, spec.Opts) {
		parts = append(parts, s.aggWalkPart(w, i, sp))
	}
	return s.runAggParts(parts, sp, workers)
}
