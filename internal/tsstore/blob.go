// Package tsstore implements the ODH storage component: the three batch
// structures of the paper's hybrid data model (Figure 1) — Regular Time
// Series (RTS), Irregular Time Series (IRTS), and Mixed Grouping (MG) —
// together with the ingest buffers, the flush path that packs b
// operational points into one indexed ValueBlob record, dirty-read scans,
// and the MG→RTS/IRTS reorganizer that Table 1 prescribes for historical
// queries over low-frequency sources.
package tsstore

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"

	"odh/internal/compress"
	"odh/internal/model"
)

// BlobFormat is the ValueBlob format this codec writes and a served store
// holds only: header summaries, sub-bucket blocks where a record's span
// allows them, and (v4) every column of more than segmentRows values —
// an IRTS record's timestamps and every tag's — stored in segments of
// segmentRows. The catalog persists it as the store's format marker.
const BlobFormat = 4

// segmentRows is the rows per timestamp segment and the values per value
// segment: a window decodes the segments holding its rows, not the record
// from row 0. It is the default batch size, so default hot and MG records
// are single segments, byte for byte the v3 layout.
const segmentRows = compress.SegmentValues

// ErrCorruptBlob reports an undecodable ValueBlob.
var ErrCorruptBlob = errors.New("tsstore: corrupt value blob")

// ErrStubbedBlob reports a payload decode attempted against a summary-only
// stub: the rows were dropped by the tier policy, so raw scans over the
// range fail explicitly — degradation is never a silent wrong answer.
// Aggregates keep folding from the surviving header summary.
var ErrStubbedBlob = errors.New("tsstore: blob aged to summary-only stub (raw rows dropped by tier policy)")

// tagStat accumulates one tag's statistics over the values a decode of
// the blob will return. For lossy compression policies the stored column
// deviates from the originals, so stats are computed from round-tripped
// values — folding a summary must be bit-identical to decoding and
// aggregating the rows.
type tagStat struct {
	nonNull  int64
	sum      float64
	min, max float64
}

func newTagStats(ntags int) []tagStat {
	stats := make([]tagStat, ntags)
	for i := range stats {
		stats[i].min = math.Inf(1)
		stats[i].max = math.Inf(-1)
	}
	return stats
}

// note folds one present value into the stat in row order (sum order must
// match the order a decode-then-aggregate pass would use).
func (s *tagStat) note(v float64) {
	s.nonNull++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// encodeOpts carries per-store encoding configuration into the blob codec.
type encodeOpts struct {
	policies    []compress.Policy // per tag; nil means lossless for all
	disable     bool              // raw storage (compression ablation)
	cold        bool              // cold tier: max-effort lossless columns
	subBucketMs int64             // sub-bucket base width; 0 writes no block (MG)
}

func (o encodeOpts) policy(tag int) compress.Policy {
	p := compress.Policy{}
	if tag < len(o.policies) {
		p = o.policies[tag]
	}
	if o.disable {
		p.Disable = true
	}
	return p
}

// --- bitmaps ---

func bitmapLen(bits int) int { return (bits + 7) / 8 }

func setBit(bm []byte, i int)      { bm[i/8] |= 1 << (i % 8) }
func getBit(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

// encodeColumns encodes the tag values of rows (each row has ntags values,
// NaN = NULL) as a presence bitmap and one column per tag (the paper's
// tag-oriented layout). It also returns per-tag statistics over the
// values a later decode will yield: for a lossy policy the freshly encoded
// column is round-tripped so the stats (and the zone maps and summary
// built from them) agree bit-for-bit with the decode path.
//
// When opts.subBucketMs > 0 the third return value holds the effective
// per-row values a decode will produce (the originals unless a lossy
// policy adjusted a column) so the sub-bucket block is built from the same
// values as the whole-blob summary; it is nil otherwise.
//
// The bytes go into one buffer sized for the worst case up front, and one
// tag's present values — and their round trip — into one scratch reused
// from tag to tag, so a hot encode allocates as often for 1 024 rows of 15
// tags as for 64 rows of 4.
func encodeColumns(rows [][]float64, ntags int, opts encodeOpts) ([]byte, []tagStat, [][]float64) {
	count := len(rows)
	nbm := bitmapLen(count * ntags)
	dst := make([]byte, nbm, nbm+ntags*(binary.MaxVarintLen32+compress.ColumnBound(count)))
	stats := newTagStats(ntags)
	var effRows [][]float64
	if opts.subBucketMs > 0 {
		effRows = rows // replaced lazily if a lossy policy adjusts values
	}
	scratch := make([]float64, 2*count)
	for tag := 0; tag < ntags; tag++ {
		// Tag-major bit order so per-tag decode only needs its own stripe.
		// The bitmap is dst's head, wherever a column's append moved dst.
		vals := scratch[:0:count]
		for row, r := range rows {
			if v := r[tag]; !model.IsNull(v) {
				setBit(dst, tag*count+row)
				vals = append(vals, v)
			}
		}
		pol := opts.policy(tag)
		// The column goes in behind room for the longest length prefix and
		// moves down to meet the prefix once its length is known.
		at := len(dst)
		dst = append(dst, make([]byte, binary.MaxVarintLen32)...)
		colAt := len(dst)
		eff := vals
		adjusted := false
		if opts.cold && !pol.Disable {
			// Cold recompaction is always lossless at maximum effort; the
			// inputs are already the round-tripped values earlier lossy
			// encodes produced, so decoded rows — and the stats below —
			// stay bit-identical across the tier transition.
			dst = compress.EncodeColumnMaxEffort(dst, vals)
		} else {
			dst = compress.EncodeColumn(dst, vals, pol)
			if !pol.Lossless() && !pol.Disable {
				if dec, err := compress.AppendColumnValues(scratch[count:count], dst[colAt:]); err == nil && len(dec) == len(vals) {
					eff = dec
					adjusted = true
				}
			}
		}
		n := binary.PutUvarint(dst[at:], uint64(len(dst)-colAt))
		dst = dst[:at+n+copy(dst[at+n:], dst[colAt:])]
		for _, v := range eff {
			stats[tag].note(v)
		}
		if adjusted && effRows != nil {
			// Scatter the round-tripped column back into a private copy of
			// the rows so sub-bucket stats see decode-identical values.
			if sameRows(effRows, rows) {
				backing := make([]float64, count*ntags)
				cp := make([][]float64, count)
				for i := 0; i < count; i++ {
					cp[i] = backing[i*ntags : (i+1)*ntags]
					copy(cp[i], rows[i][:ntags])
				}
				effRows = cp
			}
			vi := 0
			for row := 0; row < count; row++ {
				if getBit(dst, tag*count+row) {
					effRows[row][tag] = eff[vi]
					vi++
				}
			}
		}
	}
	return dst, stats, effRows
}

// sameRows reports whether a is still the identical slice header as b
// (used to detect whether effRows has already been copied).
func sameRows(a, b [][]float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// --- fsck reference ---
//
// The header summaries recomputed from a full decode: what VerifyBlobs and
// the tests compare a parsed header against. Nothing on the query path
// calls these.

// summaryFromBatch computes the summary a header should carry from a full
// decode of its blob.
func summaryFromBatch(batch *DecodedBatch, ntags int) *blobSummary {
	s := newBlobSummary(ntags)
	s.rows = int64(len(batch.Timestamps))
	for tag := 0; tag < ntags; tag++ {
		s.min[tag] = math.Inf(1)
		s.max[tag] = math.Inf(-1)
	}
	for i, ts := range batch.Timestamps {
		if i == 0 || ts < s.firstTS {
			s.firstTS = ts
		}
		if i == 0 || ts > s.lastTS {
			s.lastTS = ts
		}
	}
	for _, row := range batch.Rows {
		for tag := 0; tag < ntags && tag < len(row); tag++ {
			v := row[tag]
			if model.IsNull(v) {
				continue
			}
			s.nonNull[tag]++
			s.sum[tag] += v
			if v < s.min[tag] {
				s.min[tag] = v
			}
			if v > s.max[tag] {
				s.max[tag] = v
			}
		}
	}
	if batch.Structure == model.MG {
		for _, slot := range batch.Slots {
			if slot >= s.members {
				s.members = slot + 1
			}
		}
	}
	return s
}

// subSummariesFromBatch computes the sub-bucket block a header should
// carry at the given base width. MG batches have none (slot order is not
// time order).
func subSummariesFromBatch(batch *DecodedBatch, ntags int, base int64) *subSummaries {
	if batch == nil || batch.Structure == model.MG {
		return nil
	}
	return subSummariesFromRows(batch.Timestamps, batch.Rows, ntags, base, maxSubBucketsRead)
}

// summaryMatches reports whether a parsed header summary agrees with a
// full decode of the same blob (the fsck cross-check). Float fields
// compare by bit pattern: summaries must be exact, not approximately
// right, or aggregate pushdown would silently change query results.
func summaryMatches(s *blobSummary, batch *DecodedBatch) bool {
	ntags := len(s.nonNull)
	ref := summaryFromBatch(batch, ntags)
	if s.rows != ref.rows {
		return false
	}
	if s.rows > 0 && (s.firstTS != ref.firstTS || s.lastTS != ref.lastTS) {
		return false
	}
	for tag := 0; tag < ntags; tag++ {
		if s.nonNull[tag] != ref.nonNull[tag] ||
			math.Float64bits(s.sum[tag]) != math.Float64bits(ref.sum[tag]) ||
			math.Float64bits(s.min[tag]) != math.Float64bits(ref.min[tag]) ||
			math.Float64bits(s.max[tag]) != math.Float64bits(ref.max[tag]) {
			return false
		}
	}
	return true
}

// subSummariesMatch reports whether a parsed sub-bucket block agrees with
// a full decode of the same blob (the fsck cross-check). Like
// summaryMatches, float fields compare by bit pattern.
func subSummariesMatch(sub *subSummaries, batch *DecodedBatch, ntags int) bool {
	ref := subSummariesFromBatch(batch, ntags, sub.base)
	if ref == nil || ref.start != sub.start || len(ref.buckets) != len(sub.buckets) {
		return false
	}
	for i := range sub.buckets {
		a, b := &sub.buckets[i], &ref.buckets[i]
		if a.rows != b.rows {
			return false
		}
		for tag := 0; tag < ntags; tag++ {
			if a.nonNull[tag] != b.nonNull[tag] ||
				math.Float64bits(a.sum[tag]) != math.Float64bits(b.sum[tag]) ||
				math.Float64bits(a.min[tag]) != math.Float64bits(b.min[tag]) ||
				math.Float64bits(a.max[tag]) != math.Float64bits(b.max[tag]) {
				return false
			}
		}
	}
	return true
}

// countBits returns how many of the bits [from, to) of bm are set, a
// 64-bit word at a time where it can.
func countBits(bm []byte, from, to int) int {
	n := 0
	for ; from < to && from%8 != 0; from++ {
		if getBit(bm, from) {
			n++
		}
	}
	for ; from+64 <= to; from += 64 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(bm[from/8:]))
	}
	for ; from+8 <= to; from += 8 {
		n += bits.OnesCount8(bm[from/8])
	}
	for ; from < to; from++ {
		if getBit(bm, from) {
			n++
		}
	}
	return n
}

// decodeColumns reconstructs rows [i0, i1) of the count rows in the layout
// written by encodeColumns into dst.Rows, reusing dst's arrays, and counts
// the values it decoded into dst.decoded. wantTags
// selects which tag indexes to decode (nil = all); a row is as wide as the
// last selected tag — narrower than ntags when wantTags stops short of it —
// and an unselected tag below that comes back NULL. Nothing behind the last
// selected column is read — b may end there (blobHeader.wantedLen). A
// column is decoded from the segment holding row i0's value only as far as
// row i1 reaches into it, and never further than its stripe of the presence
// bitmap says it goes: the bitmap, whose length the blob's own bytes bound,
// is what sizes every allocation here.
func decodeColumns(dst *DecodedBatch, b []byte, count, ntags int, wantTags []int, i0, i1 int) error {
	bmLen := bitmapLen(count * ntags)
	if len(b) < bmLen {
		return ErrCorruptBlob
	}
	bm := b[:bmLen]
	b = b[bmLen:]
	last := lastWanted(wantTags, ntags)
	width := last + 1
	dst.backing = sized(dst.backing, (i1-i0)*width)
	for i := range dst.backing {
		dst.backing[i] = model.NullValue
	}
	rows := sized(dst.Rows, i1-i0)
	for i := range rows {
		// Capped, so that appending to one row cannot reach into the next.
		rows[i] = dst.backing[i*width : (i+1)*width : (i+1)*width]
	}
	dst.Rows = rows
	for tag := 0; tag <= last; tag++ {
		colLen, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b[n:])) < colLen {
			return ErrCorruptBlob
		}
		col := b[n : n+int(colLen)]
		b = b[n+int(colLen):]
		if wantTags != nil && !slices.Contains(wantTags, tag) || i0 == i1 {
			continue // the tag-oriented win: skip without decoding
		}
		// A part of the record skips a tag it holds no value of, as it
		// skips an unwanted one; a whole decode checks every column.
		present := countBits(bm, tag*count+i0, tag*count+i1)
		if present == 0 && i1-i0 < count {
			continue
		}
		// The column holds the present values only: the window's start at
		// the number present before row i0.
		vi := countBits(bm, tag*count, tag*count+i0)
		vals, start, err := compress.DecodeColumnN(dst.col, col, vi, vi+present)
		if err != nil {
			return err
		}
		dst.col = vals
		dst.decoded += len(vals)
		for row := i0; row < i1; row++ {
			if getBit(bm, tag*count+row) {
				if vi-start >= len(vals) {
					return ErrCorruptBlob
				}
				rows[row-i0][tag] = vals[vi-start]
				vi++
			}
		}
	}
	return nil
}

// lastWanted returns the last tag of ntags a decode of wantTags reads
// (nil = all): -1 when it reads none.
func lastWanted(wantTags []int, ntags int) int {
	if wantTags == nil {
		return ntags - 1
	}
	last := -1
	for _, t := range wantTags {
		if t >= 0 && t < ntags {
			last = max(last, t)
		}
	}
	return last
}

// wantedLen returns how many leading bytes of a record of size bytes a
// decode of wantTags reads: the header, what the structure keeps in front
// of its columns — an IRTS record's segmented timestamps, an MG record's
// member bitmap and offsets — the presence bitmap, and the columns through
// the last wanted tag, each column's length read off its own prefix. It
// asks h.b only for the bytes in front of what it reaches: when they end
// before it can tell, more is true and n lies past len(h.b) — read at
// least through n and ask again. A decode of the last tag (every decode of
// all tags, SELECT *), a stub, a header that did not parse, an unsegmented
// IRTS record (whose timestamp stream is as long as decoding it says) and
// bytes that do not parse read the whole record: size.
func (h *blobHeader) wantedLen(wantTags []int, size int) (n int, more bool) {
	last := lastWanted(wantTags, h.ntags)
	if last == h.ntags-1 || h.payOff == 0 || h.tier() == TierStub {
		return size, false
	}
	r := prefixReader{b: h.b, off: h.payOff}
	rows := h.count
	switch h.structure {
	case blobIRTS:
		// uvarint 0, three varints per segment, then the segments.
		if rows <= segmentRows {
			return size, false
		}
		if v := r.varint(); r.need == 0 && v != 0 {
			return size, false
		}
		var body uint64
		for s := 0; s < (rows+segmentRows-1)/segmentRows; s++ {
			body += min(r.varint()>>1, uint64(size))
			r.varint()
			r.varint()
		}
		r.advance(body, size)
	case blobMG:
		// The member bitmap, the reported count, then the offsets (their
		// count, which must be the reported one, and a varint each); the
		// columns hold the reported rows.
		r.advance(uint64(bitmapLen(rows)), size)
		reported, n := r.varint(), r.varint()
		if r.need == 0 && (n != reported || reported > uint64(rows)) {
			return size, false
		}
		rows = int(min(reported, uint64(rows)))
		r.varints(rows)
	}
	r.advance(uint64(bitmapLen(rows*h.ntags)), size)
	for tag := 0; tag <= last; tag++ {
		r.advance(r.varint(), size)
	}
	return r.end(size)
}

// prefixReader walks the varints and lengths in front of a record's
// columns over the bytes read of it so far. It stops at the first varint
// the bytes cannot answer: need is then how far they must reach first, or
// the whole record when they already reach that far and do not parse.
type prefixReader struct {
	b    []byte
	off  int
	need int // 0 = every read so far was answered
}

func (r *prefixReader) varint() uint64 {
	if r.need != 0 {
		return 0
	}
	if r.off < len(r.b) {
		if v, k := binary.Uvarint(r.b[r.off:]); k > 0 {
			r.off += k
			return v
		}
	}
	r.need = r.off + binary.MaxVarintLen64
	return 0
}

// varints steps over n varints without decoding them, a word at a time
// (compress.SkipUvarints): what an MG record's offsets cost a walk that
// decodes them later.
func (r *prefixReader) varints(n int) {
	if r.need == 0 {
		k, ok := compress.SkipUvarints(r.b[min(r.off, len(r.b)):], n)
		if r.off += k; !ok {
			r.need = r.off + binary.MaxVarintLen64
		}
	}
}

// advance steps over n bytes; a step past the record asks for all of it.
func (r *prefixReader) advance(n uint64, size int) {
	if r.need == 0 {
		if n > uint64(size-r.off) {
			r.need = size
		}
		r.off += int(n)
	}
}

// end returns where the walk ended: the prefix, or the bytes to read
// before asking again (more) — the whole record when it ended past it, or
// where the bytes read reach and still do not parse.
func (r *prefixReader) end(size int) (int, bool) {
	switch {
	case r.need == 0:
		return min(r.off, size), false
	case r.need <= len(r.b) || r.need > size:
		return size, false
	}
	return r.need, true
}

// EncodeRTS packs a run of regular points (identical intervals, contiguous
// slots) into an RTS ValueBlob. The record key carries (source, baseTS);
// the blob stores the interval and per-tag columns, so timestamps cost
// zero bytes per point.
func EncodeRTS(points []model.Point, ntags int, intervalMs int64, opts encodeOpts) []byte {
	// RTS decode reconstructs timestamps from the record key and the
	// interval; summarize the same arithmetic, not the input points.
	var base int64
	if len(points) > 0 {
		base = points[0].TS
	}
	rows := make([][]float64, len(points))
	ts := make([]int64, len(points))
	for i, p := range points {
		rows[i] = p.Values
		ts[i] = base + int64(i)*intervalMs
	}
	cols, stats, effRows := encodeColumns(rows, ntags, opts)
	sub := subSummariesFromRows(ts, effRows, ntags, opts.subBucketMs, maxSubBucketsWrite)
	dst := make([]byte, 0, headerBound(ntags, sub)+len(cols))
	dst = appendBlobHeader(dst, blobRTS, ntags, len(points), intervalMs, opts.cold, stats, base, ts, sub)
	return append(dst, cols...)
}

// EncodeIRTS packs irregular points into an IRTS ValueBlob; timestamps are
// delta-of-delta encoded (appendTimestamps). They ride inline and need not
// be sorted.
func EncodeIRTS(points []model.Point, ntags int, opts encodeOpts) []byte {
	var base int64
	if len(points) > 0 {
		base = points[0].TS
	}
	rows := make([][]float64, len(points))
	ts := make([]int64, len(points))
	for i, p := range points {
		rows[i] = p.Values
		ts[i] = p.TS
	}
	cols, stats, effRows := encodeColumns(rows, ntags, opts)
	sub := subSummariesFromRows(ts, effRows, ntags, opts.subBucketMs, maxSubBucketsWrite)
	dst := make([]byte, 0, headerBound(ntags, sub)+timestampsBound(len(ts))+len(cols))
	dst = appendBlobHeader(dst, blobIRTS, ntags, len(points), 0, opts.cold, stats, base, ts, sub)
	dst = appendTimestamps(dst, ts)
	return append(dst, cols...)
}

// EncodeMG packs one time window's values from an MG group into an MG
// ValueBlob. present[slot] reports which members delivered a record;
// rows[slot] holds each member's tag values and tsOffsets[slot] the
// member's timestamp offset from the record's window base (low-frequency
// sources rarely sample at exactly the same instant, so MG records bucket
// a window and keep per-member offsets).
func EncodeMG(present []bool, rows [][]float64, tsOffsets []int64, ntags int, opts encodeOpts) []byte {
	memberCount := len(present)
	reported := make([][]float64, 0, memberCount)
	offsets := make([]int64, 0, memberCount)
	for slot, ok := range present {
		if ok {
			reported = append(reported, rows[slot])
			if slot < len(tsOffsets) {
				offsets = append(offsets, tsOffsets[slot])
			} else {
				offsets = append(offsets, 0)
			}
		}
	}
	// MG rows are stored in slot order, not time order, so the blob never
	// carries a sub-bucket block (a sub-fold would emit groups in a
	// different order than a row-by-row decode).
	opts.subBucketMs = 0
	cols, stats, _ := encodeColumns(reported, ntags, opts)
	nbm := bitmapLen(memberCount)
	dst := make([]byte, 0, headerBound(ntags, nil)+nbm+binary.MaxVarintLen64*(2+len(offsets))+len(cols))
	// The summary bounds the offsets against base 0: the reader passes the
	// record's window base — the key timestamp — as baseTS.
	dst = appendBlobHeader(dst, blobMG, ntags, memberCount, 0, opts.cold, stats, 0, offsets, nil)
	at := len(dst)
	dst = slices.Grow(dst, nbm)[:at+nbm]
	clear(dst[at:])
	for slot, ok := range present {
		if ok {
			setBit(dst[at:], slot)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(reported)))
	dst = compress.AppendDeltas(dst, offsets)
	return append(dst, cols...)
}

// appendTimestamps appends an IRTS record's timestamp column. Up to
// segmentRows rows it is one delta-of-delta stream, as before segments
// existed; longer, it is segmented:
//
//	uvarint 0       a stream opens with its count, which is > segmentRows here
//	per segment     uvarint len<<1 | sorted, varint min - the previous
//	                segment's min (the first's: min itself), uvarint max-min
//	segments        delta-of-delta streams of ts - min, segmentRows rows each
//
// The bounds let a window pick its segments without assuming the rows are
// sorted; sorted says a segment's rows never decrease, so a window stops
// inside its last segment at the first row past its end.
//
// The table is written into room reserved in front of the segments, which
// move down behind it once the last is written.
func appendTimestamps(dst []byte, ts []int64) []byte {
	if len(ts) <= segmentRows {
		return compress.AppendDeltaOfDeltas(dst, ts)
	}
	dst = append(dst, 0)
	at := len(dst)
	room := (len(ts) + segmentRows - 1) / segmentRows * 3 * binary.MaxVarintLen64
	dst = slices.Grow(dst, room)[:at+room]
	table := 0
	var rel [segmentRows]int64
	prevMin := int64(0)
	for i := 0; i < len(ts); i += segmentRows {
		seg := ts[i:min(i+segmentRows, len(ts))]
		lo, hi, sorted := seg[0], seg[0], uint64(1)
		for j, t := range seg {
			lo, hi = min(lo, t), max(hi, t)
			if j > 0 && t < seg[j-1] {
				sorted = 0
			}
		}
		for j, t := range seg {
			rel[j] = t - lo
		}
		n := len(dst)
		dst = compress.AppendDeltaOfDeltas(dst, rel[:len(seg)])
		table += binary.PutUvarint(dst[at+table:], uint64(len(dst)-n)<<1|sorted)
		table += binary.PutVarint(dst[at+table:], lo-prevMin)
		table += binary.PutUvarint(dst[at+table:], uint64(hi)-uint64(lo))
		prevMin = lo
	}
	return dst[:at+table+copy(dst[at+table:], dst[at+room:])]
}

// timestampsBound is the most bytes appendTimestamps writes for n rows: a
// varint a row, a count a segment and room for a segment's table entry.
func timestampsBound(n int) int {
	return binary.MaxVarintLen64 * (1 + n + 4*((n+segmentRows-1)/segmentRows))
}

// decodeTimestamps decodes the timestamps of rows [from, from+len(ts)) of
// an IRTS record of count rows — a range holding every row in [lo, last],
// possibly with rows outside it — and returns the bytes behind the column.
// A one-stream column decodes whole. A segmented one decodes the segments
// from the first whose bounds meet the window to the last, the last only
// up to its first row past last when it is sorted; none when no segment
// meets it. Every row decoded must lie in its segment's bounds, in order
// when the segment says it is sorted, so the bounds a full decode accepts
// are the truth a window relies on. They go into dst's array if it fits.
func decodeTimestamps(dst []int64, b []byte, count int, lo, last int64) (ts []int64, from int, rest []byte, err error) {
	if n, k := binary.Uvarint(b); k <= 0 || n != 0 || count <= segmentRows {
		ts, rest, err := compress.DeltaOfDeltas(dst, b)
		if err != nil || len(ts) != count {
			return nil, 0, nil, ErrCorruptBlob
		}
		return ts, 0, rest, nil
	}
	nseg := (count + segmentRows - 1) / segmentRows
	if 3*nseg > len(b) {
		return nil, 0, nil, ErrCorruptBlob // every entry takes three bytes
	}
	// Walk the table: the bytes it accounts for, and the window's first
	// and last segments, with where the first one's entry and stream start.
	r := blobReader{b: b, off: 1}
	var total uint64
	first, lastSeg, firstEntry, firstOff, firstMin := -1, -1, 0, uint64(0), int64(0)
	segMin := int64(0)
	for s := 0; s < nseg && !r.bad; s++ {
		entry := r.off
		l := r.uvarint(uint64(2*len(b)+1)) >> 1 // no sum of them wraps
		segMin += r.varint()
		span := r.uvarint(uint64(math.MaxInt64) - uint64(segMin))
		if segMin <= last && segMin+int64(span) >= lo {
			if first < 0 {
				first, firstEntry, firstOff, firstMin = s, entry, total, segMin
			}
			lastSeg = s
		}
		total += l
	}
	if r.bad || total > uint64(len(b)-r.off) {
		return nil, 0, nil, ErrCorruptBlob
	}
	body, rest := b[r.off:r.off+int(total)], b[r.off+int(total):]
	if first < 0 {
		return nil, 0, rest, nil
	}
	r.off, segMin = firstEntry, firstMin
	off := firstOff
	ts = sized(dst, (lastSeg-first+1)*segmentRows)[:0]
	for s := first; s <= lastSeg; s++ {
		lenSorted := r.uvarint(math.MaxUint64)
		if d := r.varint(); s > first {
			segMin += d
		}
		span := r.uvarint(math.MaxUint64)
		stream := body[off : off+lenSorted>>1]
		off += lenSorted >> 1
		share := min(segmentRows, count-s*segmentRows)
		stop := lenSorted&1 == 1 && s == lastSeg
		if ts, err = appendTimestampSegment(ts, stream, share, segMin, span, lenSorted&1 == 1, stop, last); err != nil {
			return nil, 0, nil, err
		}
	}
	return ts, first * segmentRows, rest, nil
}

// appendTimestampSegment appends the share rows of one timestamp segment,
// each min plus its stream value, checking each against the segment's
// bounds and, when sorted, order; with stop it ends at the first row past
// last (behind it a sorted segment holds no row at or before last).
func appendTimestampSegment(ts []int64, stream []byte, share int, segMin int64, span uint64, sorted, stop bool, last int64) ([]int64, error) {
	n, k := binary.Uvarint(stream)
	if k <= 0 || n != uint64(share) {
		return nil, ErrCorruptBlob
	}
	stream = stream[k:]
	var v, delta, d int64
	var err error
	for i := 0; i < share; i++ {
		if d, stream, err = compress.Varint(stream); err != nil {
			return nil, ErrCorruptBlob
		}
		switch i {
		case 0:
			v = d
		case 1:
			delta = d
			v += delta
		default:
			delta += d
			v += delta
		}
		t := segMin + v
		if uint64(v) > span || sorted && i > 0 && t < ts[len(ts)-1] {
			return nil, ErrCorruptBlob
		}
		if stop && t > last {
			break
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// DecodedBatch is the result of decoding any ValueBlob.
type DecodedBatch struct {
	// Structure reports which batch structure the blob used.
	Structure model.Structure
	// Timestamps holds one entry per row. RTS rows reconstruct them from
	// the base and interval; IRTS rows carry them inline; MG rows are the
	// record's window base plus each member's stored offset.
	Timestamps []int64
	// Rows holds decoded tag values (selected tags only; others NULL).
	Rows [][]float64
	// Slots maps MG rows to group member slots; nil for RTS/IRTS.
	Slots []int
	// decoded counts the timestamps and tag values the decode materialised
	// (Stats.DecodedValues), the rows a window's segments hold around it too.
	decoded int
	// backing holds the cells of Rows, col the column a decode scatters
	// from (dropped when cached); a decode into the batch reuses both.
	backing, col []float64
}

// DecodeBlob decodes a ValueBlob of any structure. baseTS is the timestamp
// from the record key (the batch's first timestamp for RTS, unused for
// IRTS which carries timestamps inline, the record timestamp for MG).
// wantTags selects tag columns (nil = all).
func DecodeBlob(b []byte, baseTS int64, wantTags []int) (*DecodedBatch, error) {
	h, _ := parseBlobHeader(b)
	return h.decodeAll(baseTS, wantTags)
}

// sized returns s resliced to n, or a new slice of n when its array is too
// short; slices.Grow of an empty one allocates twice under -race.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeAll decodes every row of the record into a fresh batch.
func (h *blobHeader) decodeAll(baseTS int64, wantTags []int) (*DecodedBatch, error) {
	return h.decode(nil, baseTS, wantTags, allMembers, math.MinInt64, math.MaxInt64)
}

// allMembers is the member selection of a decode that wants every row.
const allMembers = -1

// rtsRowRange returns the rows [i0, i1) of an RTS record whose timestamps
// baseTS + i*interval lie in [lo, last]. A record whose arithmetic is not
// plainly increasing (a non-positive interval, timestamps that would wrap)
// takes the full range and leaves the filtering to the consumer.
func rtsRowRange(baseTS, interval int64, count int, lo, last int64) (int, int) {
	if count == 0 || interval <= 0 ||
		uint64(count-1) > (math.MaxInt64-uint64(max(baseTS, 0)))/uint64(interval) {
		return 0, count
	}
	// Differences of ordered int64s are exact in uint64.
	step, i0, i1 := uint64(interval), uint64(0), uint64(0)
	if lo > baseTS {
		d := uint64(lo) - uint64(baseTS)
		if i0 = d / step; d%step != 0 {
			i0++
		}
	}
	if last >= baseTS {
		i1 = min((uint64(last)-uint64(baseTS))/step+1, uint64(count))
	}
	return int(min(i0, i1)), int(i1)
}

// rowRange returns the smallest index range [i0, i1) that holds every
// timestamp in [lo, last]; ts need not be sorted, so rows outside the
// window can fall inside the range.
func rowRange(ts []int64, lo, last int64) (int, int) {
	i0, i1 := 0, 0
	for i, t := range ts {
		if t >= lo && t <= last {
			if i1 == 0 {
				i0 = i
			}
			i1 = i + 1
		}
	}
	return i0, i1
}

// decode runs the structure's payload codec behind a parsed header, for
// the rows with timestamps in [lo, last] (both inclusive, so the full
// int64 range names every row): an RTS or IRTS record decodes and
// materialises only the smallest row range holding them — possibly with
// rows outside the window in it, which consumers filter as they always did
// — and each column only up to that range's end. An MG record (slot order,
// one window wide) decodes whole for slot allMembers; for a member slot it
// yields that member's row alone, decoded the same way as a one-row range,
// when the member bitmap has the slot and its timestamp lies in [lo, last],
// and no row — decoding nothing — when not. A record the window covers
// decodes whole: whole tells which a result is.
// The rows go into dst, reusing its arrays, valid until its next decode;
// a nil dst decodes into a fresh batch, which a caller may keep or share.
func (h *blobHeader) decode(dst *DecodedBatch, baseTS int64, wantTags []int, slot int, lo, last int64) (*DecodedBatch, error) {
	if dst == nil {
		dst = new(DecodedBatch)
	}
	if h.tier() == TierStub {
		// The payload is gone by design, not by damage: surface the typed
		// error so scans can distinguish tier degradation from corruption
		// (lenient recovery must never quarantine a stub).
		return nil, ErrStubbedBlob
	}
	if h.payOff == 0 {
		return nil, ErrCorruptBlob
	}
	*dst = DecodedBatch{Timestamps: dst.Timestamps[:0], Rows: dst.Rows[:0], Slots: dst.Slots[:0], backing: dst.backing, col: dst.col}
	b := h.payload()
	switch h.structure {
	case blobRTS:
		dst.Structure = model.RTS
		i0, i1 := rtsRowRange(baseTS, h.interval, h.count, lo, last)
		if err := decodeColumns(dst, b, h.count, h.ntags, wantTags, i0, i1); err != nil {
			return nil, err
		}
		dst.Timestamps = sized(dst.Timestamps, i1-i0)
		for i := range dst.Timestamps {
			dst.Timestamps[i] = baseTS + int64(i0+i)*h.interval
		}
		dst.decoded += i1 - i0
		return dst, nil
	case blobIRTS:
		dst.Structure = model.IRTS
		ts, from, rest, err := decodeTimestamps(dst.Timestamps, b, h.count, lo, last)
		if err != nil {
			return nil, err
		}
		i0, i1 := rowRange(ts, lo, last)
		if err := decodeColumns(dst, rest, h.count, h.ntags, wantTags, from+i0, from+i1); err != nil {
			return nil, err
		}
		dst.Timestamps = ts[:copy(ts, ts[i0:i1])]
		dst.decoded += len(ts)
		return dst, nil
	}
	dst.Structure = model.MG
	memberCount := h.count
	bmLen := bitmapLen(memberCount)
	if len(b) < bmLen {
		return nil, ErrCorruptBlob
	}
	memberBM := b[:bmLen]
	b = b[bmLen:]
	if slot >= 0 && (slot >= memberCount || !getBit(memberBM, slot)) {
		return dst, nil
	}
	reportedU, n := binary.Uvarint(b)
	if n <= 0 || reportedU > uint64(memberCount) {
		return nil, ErrCorruptBlob
	}
	reported := int(reportedU)
	if countBits(memberBM, 0, memberCount) != reported {
		return nil, ErrCorruptBlob
	}
	// Rows are in slot order: the member's is the count of members before
	// it. A member's decode sums the offsets through its own and steps over
	// the rest; a whole decode materialises them all.
	var rest []byte
	i0, i1 := 0, reported
	if slot >= 0 {
		i0 = countBits(memberBM, 0, slot)
		off, m, r, err := compress.DeltaAt(b[n:], i0)
		if err != nil || m != reported {
			return nil, ErrCorruptBlob
		}
		if t := baseTS + off; t < lo || t > last {
			return dst, nil
		}
		dst.Timestamps, dst.Slots = append(dst.Timestamps, baseTS+off), append(dst.Slots, slot)
		rest, i1 = r, i0+1
	} else {
		offsets, r, err := compress.Deltas(dst.Timestamps, b[n:])
		if err != nil || len(offsets) != reported {
			return nil, ErrCorruptBlob
		}
		for i := range offsets {
			offsets[i] += baseTS
		}
		dst.Timestamps, rest = offsets, r
		dst.Slots = sized(dst.Slots, reported)[:0]
		for s := 0; s < memberCount; s++ {
			if getBit(memberBM, s) {
				dst.Slots = append(dst.Slots, s)
			}
		}
	}
	if err := decodeColumns(dst, rest, reported, h.ntags, wantTags, i0, i1); err != nil {
		return nil, err
	}
	// The offsets decoded: all of them, or a member's own and those before it.
	dst.decoded += i0 + len(dst.Timestamps)
	return dst, nil
}

// segmented reports whether every column of the record holding more than
// segmentRows values — an IRTS record's timestamps, any tag's — is
// segmented, as the current format writes it; the upgrade re-encodes a
// record whose columns are not. A payload that does not parse counts as
// segmented: the upgrade leaves unreadable records to fsck.
func (h *blobHeader) segmented() bool {
	b, rows := h.payload(), h.count
	if rows <= segmentRows {
		return true // MG: members bound the rows reported
	}
	switch h.structure {
	case blobIRTS:
		// A v3 column opens with its row count; a v4 writer segments the
		// tags' columns wherever it segments the timestamps.
		n, k := binary.Uvarint(b)
		return k <= 0 || n == 0
	case blobMG:
		bmLen := bitmapLen(rows)
		if len(b) < bmLen {
			return true
		}
		// Behind the member bitmap: the reported count, then the offsets.
		rows = countBits(b, 0, h.count)
		_, n := binary.Uvarint(b[bmLen:])
		if n <= 0 {
			return true
		}
		var err error
		if _, b, err = compress.Deltas(nil, b[bmLen+n:]); err != nil {
			return true
		}
	}
	bmLen := bitmapLen(rows * h.ntags)
	if len(b) < bmLen {
		return true
	}
	bm, cols := b[:bmLen], b[bmLen:]
	for tag := 0; tag < h.ntags; tag++ {
		l, n := binary.Uvarint(cols)
		if n <= 0 || l == 0 || uint64(len(cols)-n) < l {
			return true
		}
		if countBits(bm, tag*rows, (tag+1)*rows) > segmentRows && compress.Codec(cols[n]) != compress.CodecSegments {
			return false
		}
		cols = cols[n+int(l):]
	}
	return true
}

// whole reports whether batch, a decode of this header's record, holds
// every row of it — not a window's row range, not one member's row. It is
// the one rule for what enters the decoded-blob cache, whose key names a
// record and the tags decoded, never a part of the record's rows.
func (h *blobHeader) whole(batch *DecodedBatch) bool {
	rows := h.count
	if h.structure == blobMG {
		// The payload opens with the member bitmap, which a decode checked
		// against the reported count.
		rows = countBits(h.payload(), 0, h.count)
	}
	return len(batch.Timestamps) == rows
}

// covers reports, before a decode, whether one of [lo, last] for slot
// will hold every row, as whole would find after it: an MG record's for
// every member, an RTS or IRTS record's whose span the window covers.
func (h *blobHeader) covers(baseTS int64, slot int, lo, last int64) bool {
	if h.structure == blobMG {
		return slot == allMembers
	}
	_, first, end, ok := h.span(baseTS)
	return ok && first >= lo && end <= last
}

// lacksMember reports whether an MG record's member bitmap says slot has no
// row in it. It reads the bitmap alone, so a record's head can answer; a
// stub, whose bitmap is gone, and a head too short to hold the slot's bit
// lack nothing.
func (h *blobHeader) lacksMember(slot int) bool {
	if h.structure != blobMG || h.payOff == 0 || h.tier() == TierStub || slot < 0 {
		return false
	}
	if slot >= h.count {
		return true
	}
	p := h.payload()
	return slot/8 < len(p) && !getBit(p, slot)
}

// reencode encodes a decoded batch back into a blob of the structure and
// shape its header h describes, under the key timestamp baseTS — the write
// half of an in-place format upgrade. The batch must be a full decode.
func (h *blobHeader) reencode(batch *DecodedBatch, baseTS int64, opts encodeOpts) []byte {
	if batch.Structure == model.MG {
		present := make([]bool, h.count)
		rows := make([][]float64, h.count)
		offsets := make([]int64, h.count)
		for i, slot := range batch.Slots {
			present[slot], rows[slot], offsets[slot] = true, batch.Rows[i], batch.Timestamps[i]-baseTS
		}
		return EncodeMG(present, rows, offsets, h.ntags, opts)
	}
	pts := make([]model.Point, len(batch.Timestamps))
	for i, ts := range batch.Timestamps {
		pts[i] = model.Point{TS: ts, Values: batch.Rows[i]}
	}
	if batch.Structure == model.RTS {
		return EncodeRTS(pts, h.ntags, h.interval, opts)
	}
	return EncodeIRTS(pts, h.ntags, opts)
}

// makeStubBlob returns the summary-only stub of a blob: the header is
// preserved byte for byte — zone maps, summary and sub-buckets survive, so
// aggregate folds over the stub stay bit-identical to decoding the payload
// — and everything after it is dropped. ok is false for blobs that are
// already stubs and for pre-summary blobs (nothing to keep).
func makeStubBlob(b []byte) ([]byte, bool) {
	h, _ := parseBlobHeader(b)
	n, ok := h.stubLen()
	if !ok || h.tier() == TierStub {
		return nil, false
	}
	stub := append([]byte(nil), b[:n]...)
	stub[0] |= flagStub
	return stub, true
}
