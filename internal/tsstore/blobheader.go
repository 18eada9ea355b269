package tsstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"odh/internal/model"
)

// The ValueBlob header: everything in front of the payload codec (blob.go).
// This file is the only code that knows the layout — parseBlobHeader reads
// it once per record, appendBlobHeader writes it for all three encoders,
// and everyone else asks the parsed blobHeader.
//
//	flag byte   structure (low 2 bits) | flagSubBuckets | flagCold |
//	            flagStub | flagSummaries | flagZoneMaps; 0x80 is freed
//	ntags       uvarint
//	RTS:        uvarint count, varint interval
//	IRTS:       uvarint count
//	MG:         uvarint member count
//	zone maps   flagZoneMaps: per tag float64 min, max over present values
//	            (empty column: min > max)
//	summary     flagSummaries: uvarint rows, varint firstTS-baseTS, varint
//	            lastTS-firstTS, per tag uvarint non-NULL count + float64 sum
//	sub-buckets flagSubBuckets (needs flagSummaries): varint base width,
//	            uvarint K, per bucket uvarint rows and per tag uvarint
//	            non-NULL count followed — only when non-zero — by float64
//	            sum, min, max
//	payload     per structure; absent in a stub
//
// Floats are little-endian IEEE bits. baseTS is the record key's timestamp
// (0 for MG, whose summary bounds member offsets from the window base).

// Blob format bytes. Values are always stored as per-tag columns (the
// paper's "tag-oriented approach").
const (
	blobRTS  = 1
	blobIRTS = 2
	blobMG   = 3

	// flagFreed marked the row-oriented layout, which no build writes: a
	// blob with it set does not parse, so none is read as per-tag columns.
	flagFreed     = 0x80
	flagZoneMaps  = 0x40
	flagSummaries = 0x20
	// The tier and sub-bucket bits live in what used to be a 5-bit format
	// field: the three structures only ever used values 1-3, so readers
	// from before each bit existed (whose structure switch covers the
	// whole field) reject such blobs as unknown formats instead of
	// silently misreading them.
	flagStub       = 0x10 // summary-only stub: header kept, payload dropped
	flagCold       = 0x08 // cold tier: recompacted at maximum codec effort
	flagSubBuckets = 0x04 // v3: per-sub-bucket mini-summaries follow the summary block
	structMask     = 0x03
)

// Tier classifies a blob's storage lifecycle stage.
type Tier uint8

// Blob lifecycle tiers, in aging order.
const (
	TierHot  Tier = iota // as flushed by ingest or maintenance
	TierCold             // recompacted at maximum codec effort
	TierStub             // summary-only; payload dropped
)

// String names the tier for stats and CLI output.
func (t Tier) String() string {
	switch t {
	case TierHot:
		return "hot"
	case TierCold:
		return "cold"
	case TierStub:
		return "stub"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// BlobTier reports which lifecycle tier a stored blob is in. A stub that
// was made from a cold blob reports TierStub (stub is the later stage).
func BlobTier(b []byte) Tier {
	if len(b) == 0 {
		return TierHot
	}
	return tierOf(b[0])
}

func tierOf(flags byte) Tier {
	switch {
	case flags&flagStub != 0:
		return TierStub
	case flags&flagCold != 0:
		return TierCold
	}
	return TierHot
}

const (
	// maxSubBucketsWrite caps how many sub-buckets a writer will emit: a
	// blob whose span crosses more base buckets than this (sparse IRTS
	// data against a narrow base width) skips the block and folds by
	// decode, keeping the header overhead bounded.
	maxSubBucketsWrite = 512
	// maxSubBucketsRead bounds what a parser will accept before declaring
	// the header corrupt.
	maxSubBucketsRead = 4096
)

// blobReader walks header bytes. A short or out-of-bounds read sets bad
// and every later read returns zero, so a parse checks once at the end.
type blobReader struct {
	b   []byte
	off int
	bad bool
}

func (r *blobReader) uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if r.bad || n <= 0 || v > max {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *blobReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *blobReader) skip(n int) {
	if r.bad || len(r.b)-r.off < n {
		r.bad = true
		return
	}
	r.off += n
}

func (r *blobReader) float() float64 {
	if r.skip(8); r.bad {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off-8:]))
}

// blobHeader is the parsed prelude of one ValueBlob: the fixed fields and
// where each section starts. The sections themselves stay encoded; the
// accessors read them on demand, so holding a header costs no allocation.
type blobHeader struct {
	b         []byte // the blob; only b[:payOff] once detached
	flags     byte
	structure byte // blobRTS, blobIRTS or blobMG
	ntags     int
	count     int   // RTS/IRTS: rows; MG: group members (slots)
	interval  int64 // RTS only
	zoneOff   int   // section offsets; 0 = section absent
	sumOff    int   // the summary's per-tag stats, after the three fields below
	subOff    int
	subBase   int64 // the sub-bucket block's base width; 0 = no block
	payOff    int   // where the payload starts; 0 = the header did not parse
	// The head of the summary block: row count, firstTS-baseTS, lastTS-firstTS.
	rows, firstDelta, spanMs int64
}

// parseBlobHeader walks a blob's prelude once, bounds-checking every
// section. A header that does not parse comes back with only its flag byte
// set (none with the freed bit): every accessor then reports "absent" and
// decode reports corruption. A pre-summary header parses, for the upgrade.
func parseBlobHeader(b []byte) (blobHeader, bool) {
	if len(b) == 0 || b[0]&flagFreed != 0 {
		return blobHeader{}, false
	}
	h := blobHeader{flags: b[0], structure: b[0] & structMask}
	r := blobReader{b: b, off: 1}
	h.prelude(&r)
	if h.flags&flagSummaries != 0 {
		for tag := 0; tag < h.ntags && !r.bad; tag++ {
			r.uvarint(math.MaxUint64)
			r.skip(8)
		}
	}
	if h.flags&flagSubBuckets != 0 {
		// The block rides behind the summary block; a blob claiming one
		// without the other was never written by any encoder.
		h.subOff = r.off
		h.subBase = r.varint()
		k := r.uvarint(maxSubBucketsRead)
		r.bad = r.bad || h.sumOff == 0 || h.subBase <= 0 || k < 1
		for i := uint64(0); i < k && !r.bad; i++ {
			rows := r.uvarint(1 << 24)
			for tag := 0; tag < h.ntags && !r.bad; tag++ {
				if r.uvarint(rows) > 0 {
					r.skip(24)
				}
			}
		}
	}
	if r.bad {
		return blobHeader{flags: b[0]}, false
	}
	h.b, h.payOff = b, r.off
	return h, true
}

// prelude walks the front of a header — the fixed fields, past the zone
// maps, the head of the summary block — which is as far as span needs.
func (h *blobHeader) prelude(r *blobReader) {
	h.ntags = int(r.uvarint(1 << 16))
	switch h.structure {
	case blobRTS:
		h.count = int(r.uvarint(1 << 24))
		h.interval = r.varint()
	case blobIRTS:
		h.count = int(r.uvarint(1 << 24))
	case blobMG:
		h.count = int(r.uvarint(1 << 20))
	default:
		r.bad = true
	}
	if h.flags&flagZoneMaps != 0 {
		h.zoneOff = r.off
		r.skip(h.ntags * 16)
	}
	if h.flags&flagSummaries != 0 {
		h.rows = int64(r.uvarint(1 << 24))
		h.firstDelta, h.spanMs = r.varint(), r.varint()
		h.sumOff = r.off
	}
}

// headLastTS reads a record's latest row timestamp off the leading bytes
// of its blob (what the first page of its overflow chain holds is plenty),
// touching nothing behind the summary's head. ok is false when head is too
// short for that, or carries no summary: the caller then reads the whole
// blob and asks span.
func headLastTS(head []byte, baseTS int64) (last int64, ok bool) {
	if len(head) == 0 {
		return 0, false
	}
	h := blobHeader{flags: head[0], structure: head[0] & structMask}
	r := blobReader{b: head, off: 1}
	h.prelude(&r)
	_, _, last, ok = h.span(baseTS)
	return last, ok && !r.bad
}

// appendBlobHeader writes the header every encoder shares. count and
// interval are the structure's own fields; stats come from encodeColumns and
// sub from the rows it returns, so the zone maps, the summary and the
// sub-bucket block describe exactly the values a decode returns. ts holds
// the timestamps a decode will reconstruct relative to baseTS's clock
// (absolute for RTS/IRTS, window offsets for MG, whose sub is nil: its rows
// are in slot order, not time order, so it never carries sub-buckets).
func appendBlobHeader(dst []byte, structure byte, ntags, count int, interval int64, cold bool, stats []tagStat, baseTS int64, ts []int64, sub *subSummaries) []byte {
	flagAt := len(dst)
	flags := structure | flagZoneMaps | flagSummaries
	if cold {
		flags |= flagCold
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(ntags))
	dst = binary.AppendUvarint(dst, uint64(count))
	if structure == blobRTS {
		dst = binary.AppendVarint(dst, interval)
	}
	for i := range stats {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(stats[i].min))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(stats[i].max))
	}
	var first, last int64
	for i, t := range ts {
		if i == 0 || t < first {
			first = t
		}
		if i == 0 || t > last {
			last = t
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	dst = binary.AppendVarint(dst, first-baseTS)
	dst = binary.AppendVarint(dst, last-first)
	for i := range stats {
		dst = binary.AppendUvarint(dst, uint64(stats[i].nonNull))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(stats[i].sum))
	}
	if sub == nil {
		return dst
	}
	dst[flagAt] |= flagSubBuckets
	dst = binary.AppendVarint(dst, sub.base)
	dst = binary.AppendUvarint(dst, uint64(len(sub.buckets)))
	for i := range sub.buckets {
		b := &sub.buckets[i]
		dst = binary.AppendUvarint(dst, uint64(b.rows))
		for tag := range b.nonNull {
			dst = binary.AppendUvarint(dst, uint64(b.nonNull[tag]))
			if b.nonNull[tag] > 0 {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.sum[tag]))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.min[tag]))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.max[tag]))
			}
		}
	}
	return dst
}

// headerBound is the most bytes appendBlobHeader writes for ntags tags and
// the sub-bucket block sub.
func headerBound(ntags int, sub *subSummaries) int {
	const v = binary.MaxVarintLen64
	n := 1 + 6*v + ntags*(16+v+8)
	if sub != nil {
		n += 2*v + len(sub.buckets)*(v+ntags*(v+24))
	}
	return n
}

// tier reports the lifecycle stage (see BlobTier).
func (h *blobHeader) tier() Tier { return tierOf(h.flags) }

// hasSummary reports whether folds may use the header: the summary block
// plus the zone maps its min/max come from.
func (h *blobHeader) hasSummary() bool { return h.sumOff != 0 && h.zoneOff != 0 }

// payload returns the bytes after the header (empty for a stub).
func (h *blobHeader) payload() []byte { return h.b[h.payOff:] }

// stubLen is the length of the prefix a stub keeps — the whole header, so
// stubs keep folding at summary and sub-bucket granularity after the
// payload is gone. ok is false for a pre-summary blob (nothing to keep).
func (h *blobHeader) stubLen() (int, bool) { return h.payOff, h.hasSummary() }

// rekeyStub returns a stub as stored under the key timestamp to instead of
// from. Of a stub's bytes the key anchors only the summary's first-row
// offset — there is no payload whose timestamps it would anchor too — so
// that offset is all that changes: the span, the sums and the sub-bucket
// grid read the same under either key. ok is false for a stub with no
// summary, or no header that parses: a damaged record, no offset to move.
func rekeyStub(stub []byte, from, to int64) ([]byte, bool) {
	h, _ := parseBlobHeader(stub)
	if !h.hasSummary() {
		return nil, false
	}
	// The summary's head follows the zone maps; it is re-encoded whole, so a
	// varint its writer padded moves nothing behind it.
	out := append([]byte(nil), stub[:h.zoneOff+16*h.ntags]...)
	out = binary.AppendVarint(binary.AppendVarint(binary.AppendUvarint(out, uint64(h.rows)), h.firstDelta+from-to), h.spanMs)
	return append(out, stub[h.sumOff:]...), true
}

// detached returns the header over a private copy of its own bytes, so the
// decoded-blob cache can keep it without pinning the payload.
func (h *blobHeader) detached() blobHeader {
	d := *h
	d.b = append([]byte(nil), h.b[:h.payOff]...)
	return d
}

// zoneMap holds one tag's min/max over a blob's present values. A column
// with no present values stores the empty sentinel (min > max).
type zoneMap struct {
	min, max float64
}

// zone reads one tag's zone map; the blob must carry zone maps.
func (h *blobHeader) zone(tag int) zoneMap {
	b := h.b[h.zoneOff+tag*16:]
	return zoneMap{
		min: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		max: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

// TagRange is a pushed-down predicate bound on one tag: rows outside
// [Lo, Hi] cannot match. Zone maps let scans skip whole blobs whose
// per-tag min/max ranges do not overlap — the paper's future-work item
// "adding proper indexing to reduce BLOB scanning for queries on
// attribute values".
type TagRange struct {
	Tag    int
	Lo, Hi float64
}

// overlaps reports whether the blob could contain a row satisfying every
// range: true (cannot skip) without zone maps or with an unparsed header.
// An empty-column sentinel never overlaps (all values are NULL, and NULL
// fails any comparison).
func (h *blobHeader) overlaps(ranges []TagRange) bool {
	if h.zoneOff == 0 {
		return true
	}
	for _, r := range ranges {
		if r.Tag < 0 || r.Tag >= h.ntags {
			continue
		}
		if z := h.zone(r.Tag); z.min > z.max || z.max < r.Lo || z.min > r.Hi {
			return false
		}
	}
	return true
}

// span returns the row count and the true earliest and latest row
// timestamps (MG member offsets are stored in slot order, not time order)
// without decoding; ok is false for a pre-summary blob.
func (h *blobHeader) span(baseTS int64) (rows, first, last int64, ok bool) {
	first = baseTS + h.firstDelta
	return h.rows, first, first + h.spanMs, h.hasSummary()
}

// blobSummary is the decoded summary of one ValueBlob: everything needed
// to fold the blob into COUNT/SUM/AVG/MIN/MAX aggregates without decoding
// its columns. min/max come from the zone maps (computed from the same
// round-tripped values as the sums), so every field is bit-identical to
// what a decode-and-aggregate pass over the blob would produce.
type blobSummary struct {
	rows     int64
	firstTS  int64 // earliest decoded timestamp
	lastTS   int64 // latest decoded timestamp
	members  int   // MG header member count; 0 for RTS/IRTS
	nonNull  []int64
	sum      []float64
	min, max []float64 // empty-column sentinel: min > max
}

func newBlobSummary(ntags int) *blobSummary {
	s := &blobSummary{}
	s.reset(ntags)
	return s
}

// reset sizes the per-tag arrays to ntags, reusing their backing when it
// is large enough; their contents are the caller's to fill.
func (s *blobSummary) reset(ntags int) {
	if cap(s.nonNull) < ntags {
		s.nonNull = make([]int64, ntags)
		fl := make([]float64, 3*ntags)
		s.sum, s.min, s.max = fl[:ntags:ntags], fl[ntags:2*ntags:2*ntags], fl[2*ntags:3*ntags:3*ntags]
	}
	s.nonNull, s.sum, s.min, s.max = s.nonNull[:ntags], s.sum[:ntags], s.min[:ntags], s.max[:ntags]
}

// summary materializes the header summary, or nil for a pre-summary blob:
// callers then fall back to decoding.
func (h *blobHeader) summary(baseTS int64) *blobSummary {
	s := &blobSummary{}
	if !h.summaryInto(baseTS, s) {
		return nil
	}
	return s
}

// summaryInto parses the header summary into dst, reusing its arrays; it
// is false, leaving dst unspecified, for a pre-summary blob.
func (h *blobHeader) summaryInto(baseTS int64, dst *blobSummary) bool {
	if !h.hasSummary() {
		return false
	}
	dst.reset(h.ntags)
	dst.rows, dst.firstTS, dst.lastTS, _ = h.span(baseTS)
	dst.members = 0
	if h.structure == blobMG {
		dst.members = h.count
	}
	r := blobReader{b: h.b, off: h.sumOff}
	for tag := 0; tag < h.ntags; tag++ {
		dst.nonNull[tag] = int64(r.uvarint(math.MaxUint64))
		dst.sum[tag] = r.float()
		z := h.zone(tag)
		dst.min[tag], dst.max[tag] = z.min, z.max
	}
	return true
}

// subBucketStat holds one base bucket's mini-summary.
type subBucketStat struct {
	rows     int64
	nonNull  []int64
	sum      []float64
	min, max []float64 // empty sentinel (min > max) when nonNull == 0
}

// subSummaries is the decoded sub-bucket block of one blob: K consecutive
// base buckets covering [start, start+K*base). Aggregate scans whose
// bucket grid is a positive integral multiple of the base width fold blobs
// that straddle bucket edges from these with zero payload decode. Stats
// accumulate in row order, so for the time-ordered structures (RTS, and
// IRTS whose persisted blobs are non-decreasing) a fold is bit-identical
// to decoding and aggregating the rows.
type subSummaries struct {
	base    int64 // base bucket width in ms
	start   int64 // grid start of buckets[0]: BucketFloor(firstTS, base)
	buckets []subBucketStat
}

// newSubSummaries allocates k empty buckets (every min/max the sentinel).
func newSubSummaries(base, start int64, k, ntags int) *subSummaries {
	sub := &subSummaries{base: base, start: start, buckets: make([]subBucketStat, k)}
	nn := make([]int64, k*ntags)
	fl := make([]float64, 3*k*ntags)
	for i := range sub.buckets {
		b := &sub.buckets[i]
		b.nonNull = nn[i*ntags : (i+1)*ntags]
		b.sum = fl[i*3*ntags : i*3*ntags+ntags]
		b.min = fl[i*3*ntags+ntags : i*3*ntags+2*ntags]
		b.max = fl[i*3*ntags+2*ntags : i*3*ntags+3*ntags]
		for tag := 0; tag < ntags; tag++ {
			b.min[tag] = math.Inf(1)
			b.max[tag] = math.Inf(-1)
		}
	}
	return sub
}

// subSummariesFromRows builds per-sub-bucket stats from row-ordered
// timestamps and (round-tripped) values. It returns nil when base is not
// positive, there are no rows, or the span crosses more than max buckets.
func subSummariesFromRows(ts []int64, rows [][]float64, ntags int, base int64, max int) *subSummaries {
	if base <= 0 || len(ts) == 0 || len(ts) != len(rows) {
		return nil
	}
	first, last := ts[0], ts[0]
	for _, t := range ts[1:] {
		if t < first {
			first = t
		}
		if t > last {
			last = t
		}
	}
	start := model.BucketFloor(first, base)
	k := (model.BucketFloor(last, base)-start)/base + 1
	if k < 1 || k > int64(max) {
		return nil
	}
	sub := newSubSummaries(base, start, int(k), ntags)
	for i, t := range ts {
		b := &sub.buckets[(model.BucketFloor(t, base)-start)/base]
		b.rows++
		row := rows[i]
		for tag := 0; tag < ntags && tag < len(row); tag++ {
			v := row[tag]
			if model.IsNull(v) {
				continue
			}
			b.nonNull[tag]++
			b.sum[tag] += v
			if v < b.min[tag] {
				b.min[tag] = v
			}
			if v > b.max[tag] {
				b.max[tag] = v
			}
		}
	}
	return sub
}

// subSummaries materializes the sub-bucket block against the blob's own
// summary sum, or nil without a block. The block is cross-validated — its
// bucket range covers [firstTS, lastTS], row and non-NULL totals agree —
// so a corrupt block can never mis-fold: it reads as absent instead and
// the record falls back to the whole-blob summary or a payload decode.
func (h *blobHeader) subSummaries(sum *blobSummary) *subSummaries {
	if h.subOff == 0 || sum == nil || sum.rows == 0 {
		return nil
	}
	r := blobReader{b: h.b, off: h.subOff}
	base, k := r.varint(), int64(r.uvarint(maxSubBucketsRead))
	start := model.BucketFloor(sum.firstTS, base)
	if (model.BucketFloor(sum.lastTS, base)-start)/base+1 != k {
		return nil
	}
	sub := newSubSummaries(base, start, int(k), h.ntags)
	rows := sum.rows
	nonNull := append([]int64(nil), sum.nonNull...)
	for i := range sub.buckets {
		b := &sub.buckets[i]
		b.rows = int64(r.uvarint(1 << 24))
		rows -= b.rows
		for tag := range b.nonNull {
			b.nonNull[tag] = int64(r.uvarint(math.MaxUint64))
			nonNull[tag] -= b.nonNull[tag]
			if b.nonNull[tag] > 0 {
				b.sum[tag], b.min[tag], b.max[tag] = r.float(), r.float(), r.float()
			}
		}
	}
	// Nothing may be left over: every tag's non-NULL count, and the rows.
	for _, left := range append(nonNull, rows) {
		if left != 0 {
			return nil
		}
	}
	return sub
}
