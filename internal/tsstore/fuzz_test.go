package tsstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"odh/internal/compress"
	"odh/internal/model"
)

// FuzzValueBlobDecode asserts that no bytes make the header parser, any
// header accessor or DecodeBlob panic or over-allocate, and that whatever
// they accept is consistent: the header's fields agree with the decode,
// the accessors agree with each other, a stub keeps exactly the header,
// a re-encode (the upgrade path) decodes to the same rows, and a decode of
// a window's row range, or of one MG member's row, yields the rows of the
// full decode: every reported member's row alone, with every tag and with
// the drawn subset, is its row of the full decode bit for bit. The prefix a walk reads (wantedLen) of a tag subset drawn
// from the blob's bytes decodes to the full decode of those tags, is found
// the same when asked of the blob's bytes a part at a time, and is tight:
// cut any shorter, the blob fails ErrCorruptBlob. A blob with the freed
// flag bit fails typed, and a stub moves a millisecond aside (rekeyStub)
// or is refused, never panics. Seeds
// are the golden fixtures — every structure, tier and shape — each also
// with the freed bit set and torn by its last byte, so mutations explore
// deep paths, not just header rejection; and a pre-summary record, which
// the upgrade still reads.
func FuzzValueBlobDecode(f *testing.F) {
	fixtures := goldenFixtures()
	for _, fx := range fixtures {
		f.Add(fx.blob)
	}
	for _, fx := range fixtures {
		f.Add(append([]byte{fx.blob[0] | flagFreed}, fx.blob[1:]...))
	}
	for _, fx := range fixtures {
		f.Add(fx.blob[:len(fx.blob)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(hugeCountBlob)
	f.Add(preSummaryBlob)
	f.Add(damagedStub)

	const baseTS = 1000
	f.Fuzz(func(t *testing.T, blob []byte) {
		h, parsed := parseBlobHeader(blob)
		if len(blob) > 0 && blob[0]&flagFreed != 0 {
			if _, err := DecodeBlob(blob, baseTS, nil); parsed || !errors.Is(err, ErrCorruptBlob) {
				t.Fatalf("a blob with the freed flag bit parsed (%v) or decoded (%v)", parsed, err)
			}
		}
		if parsed && h.tier() == TierStub {
			moved, ok := rekeyStub(blob, baseTS, baseTS-1)
			if ok != h.hasSummary() {
				t.Fatalf("rekeyStub ok = %v for a stub with summary %v", ok, h.hasSummary())
			}
			if ok {
				mh, _ := parseBlobHeader(moved)
				rows, first, last, _ := h.span(baseTS)
				if mr, mf, ml, ok := mh.span(baseTS - 1); !ok || mr != rows || mf != first || ml != last {
					t.Fatal("a re-keyed stub's span moved")
				}
			}
		}
		// Every accessor answers — absent or present — on any header.
		_ = h.overlaps([]TagPred{{Tag: 0, Lo: -1, Hi: 1}})
		sum := h.summary(baseTS)
		sub := h.subSummaries(sum)
		rows, first, last, spanOK := h.span(baseTS)
		if spanOK != (sum != nil) || (sum != nil && (rows != sum.rows || first != sum.firstTS || last != sum.lastTS)) {
			t.Fatalf("span (%d,%d,%d,%v) disagrees with summary %+v", rows, first, last, spanOK, sum)
		}
		if !parsed && (sum != nil || sub != nil) {
			t.Fatal("an unparsed header produced a summary")
		}
		if sub != nil {
			// Anything the sub-bucket accessor accepts satisfies the fold
			// invariants the aggregate path relies on.
			if sub.base <= 0 || len(sub.buckets) == 0 || len(sub.buckets) > maxSubBucketsRead {
				t.Fatalf("accepted sub block with base=%d buckets=%d", sub.base, len(sub.buckets))
			}
			var total int64
			for _, b := range sub.buckets {
				total += b.rows
				for _, nn := range b.nonNull {
					if nn < 0 || nn > b.rows {
						t.Fatalf("accepted sub bucket with nonNull=%d rows=%d", nn, b.rows)
					}
				}
			}
			if total != sum.rows {
				t.Fatalf("accepted sub block totaling %d rows against a %d-row summary", total, sum.rows)
			}
		}
		if stub, ok := makeStubBlob(blob); ok {
			sh, ok := parseBlobHeader(stub)
			if !ok || len(sh.payload()) != 0 || sh.payOff != h.payOff || stub[0] != blob[0]|flagStub || !bytes.Equal(stub[1:], blob[1:h.payOff]) {
				t.Fatal("stub does not carry the blob's header")
			}
			if _, err := DecodeBlob(stub, baseTS, nil); !errors.Is(err, ErrStubbedBlob) {
				t.Fatalf("DecodeBlob(stub) = %v", err)
			}
		}

		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(blob))))
		subset := randomTags(rng, h.ntags)
		if n, more := h.wantedLen(subset, len(blob)); more || n < 0 || n > len(blob) {
			t.Fatalf("wantedLen(%v) of the whole %d-byte blob = %d, more %v", subset, len(blob), n, more)
		}

		batch, err := DecodeBlob(blob, baseTS, nil)
		if err != nil {
			return
		}
		if !parsed {
			t.Fatal("decoded a blob whose header does not parse")
		}
		checkPrefixDecode(t, blob, &h, baseTS, subset, rng)
		// Structural postconditions on anything that decodes cleanly.
		if len(batch.Timestamps) != len(batch.Rows) {
			t.Fatalf("%d timestamps for %d rows", len(batch.Timestamps), len(batch.Rows))
		}
		if batch.Slots != nil && len(batch.Slots) != len(batch.Rows) {
			t.Fatalf("%d slots for %d rows", len(batch.Slots), len(batch.Rows))
		}
		if batch.Structure != model.MG && len(batch.Rows) != h.count || len(batch.Rows) > h.count {
			t.Fatalf("header count %d, decoded %d rows", h.count, len(batch.Rows))
		}
		for _, row := range batch.Rows {
			if len(row) != h.ntags {
				t.Fatalf("header ntags %d, decoded row of %d", h.ntags, len(row))
			}
		}
		// Partial-column decode must be consistent too.
		if _, err := DecodeBlob(blob, baseTS, []int{0}); err != nil {
			t.Fatalf("full decode succeeded but wantTags decode failed: %v", err)
		}
		// The upgrade path: a lossless re-encode at the current format
		// decodes to the same rows, and its header matches its own rows.
		// (A header may claim millions of zero-tag rows in a few bytes;
		// round-tripping those only slows the fuzzer down.)
		if len(batch.Rows) > 1<<12 {
			return
		}
		// A range decode is the full decode, restricted to the window.
		if n := len(batch.Timestamps); n > 0 {
			ts := batch.Timestamps
			for _, w := range [][2]int64{{ts[n/3], ts[2*n/3]}, {ts[n/2], ts[n/2]}, {ts[0] + 1, ts[n-1] - 1}, {math.MinInt64, ts[n/2]}, {ts[n/2], math.MaxInt64 - 1}} {
				if w[0] <= w[1] && w[1] < math.MaxInt64 {
					checkWindowedDecode(t, &h, baseTS, nil, batch, w[0], w[1]+1)
				}
			}
		}
		// A member decode is the full decode, restricted to the member:
		// every reported slot alone, then the first, middle and last
		// reported slots and one the bitmap lacks, over the whole record
		// and a one-millisecond window.
		if slots := batch.Slots; batch.Structure == model.MG {
			checkMemberRows(t, &h, baseTS, batch, subset)
			absent := 0
			for _, s := range slots {
				if s == absent {
					absent++
				}
			}
			probe, mid := []int{absent}, int64(baseTS)
			if n := len(slots); n > 0 {
				probe, mid = append(probe, slots[0], slots[n/2], slots[n-1]), batch.Timestamps[n/2]
			}
			for _, slot := range probe {
				checkMemberDecode(t, &h, baseTS, nil, batch, slot, math.MinInt64, math.MaxInt64)
				if mid < math.MaxInt64 {
					checkMemberDecode(t, &h, baseTS, nil, batch, slot, mid, mid+1)
				}
			}
		}
		again := h.reencode(batch, baseTS, encodeOpts{subBucketMs: 60})
		back, err := DecodeBlob(again, baseTS, nil)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if !reflect.DeepEqual(back.Timestamps, batch.Timestamps) || !reflect.DeepEqual(back.Slots, batch.Slots) || len(back.Rows) != len(batch.Rows) {
			t.Fatal("re-encode changed the rows' timestamps or slots")
		}
		for i := range back.Rows {
			if !valuesEqual(back.Rows[i], batch.Rows[i]) {
				t.Fatalf("re-encode changed row %d: %v -> %v", i, batch.Rows[i], back.Rows[i])
			}
		}
		if keyed := len(batch.Timestamps) == 0 || batch.Structure == model.MG || batch.Timestamps[0] == baseTS; keyed && !blobIntact(again, baseTS) {
			t.Fatal("re-encoded blob fails fsck")
		}
	})
}

// checkMemberRows decodes each reported slot of an MG record alone, with
// every tag and with wantTags, and holds it to whole, the record's full
// decode of every tag: one row, the slot's, at the slot's timestamp, as
// wide as the last tag asked for, each tag asked for bit for bit the full
// decode's cell of it — NULL where that is NULL — and the others NULL.
func checkMemberRows(t *testing.T, h *blobHeader, baseTS int64, whole *DecodedBatch, wantTags []int) {
	t.Helper()
	for i, slot := range whole.Slots {
		for _, tags := range [][]int{nil, wantTags} {
			part, err := h.decode(nil, baseTS, tags, slot, math.MinInt64, math.MaxInt64)
			if err != nil {
				t.Fatalf("slot %d tags %v: the full decode succeeded, the member's alone failed: %v", slot, tags, err)
			}
			if len(part.Rows) != 1 || len(part.Timestamps) != 1 || !slices.Equal(part.Slots, []int{slot}) || part.Timestamps[0] != whole.Timestamps[i] {
				t.Fatalf("slot %d tags %v: member decode has timestamps %v, slots %v, %d rows; want the one row at %d",
					slot, tags, part.Timestamps, part.Slots, len(part.Rows), whole.Timestamps[i])
			}
			row := part.Rows[0]
			if len(row) != lastWanted(tags, h.ntags)+1 {
				t.Fatalf("slot %d tags %v: the row is %d tags wide, not as wide as the last tag asked for", slot, tags, len(row))
			}
			for tag, v := range row {
				want := model.NullValue
				if tags == nil || slices.Contains(tags, tag) {
					want = whole.Rows[i][tag]
				}
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("slot %d tags %v: tag %d is %v alone, %v in the full decode", slot, tags, tag, v, want)
				}
			}
		}
	}
}

// randomTags draws a tag subset of ntags: nil (every tag) one time in
// eight, else each tag with even odds, in random order, now and then with
// a tag out of range.
func randomTags(rng *rand.Rand, ntags int) []int {
	if rng.Intn(8) == 0 {
		return nil
	}
	tags := []int{}
	for _, tag := range rng.Perm(ntags) {
		if rng.Intn(2) == 0 {
			tags = append(tags, tag)
		}
	}
	if rng.Intn(8) == 0 {
		tags = append(tags, ntags+rng.Intn(3), -1)
	}
	return tags
}

// checkPrefixDecode holds the prefix of a blob whose full decode succeeds
// to its contract: the blob cut at wantedLen decodes to the full decode of
// the subset; asked of the blob's leading bytes a part at a time, as a walk
// reads it, wantedLen arrives at the same length; and a blob cut shorter
// than a prefix that stops before its end fails ErrCorruptBlob.
func checkPrefixDecode(t *testing.T, blob []byte, h *blobHeader, baseTS int64, subset []int, rng *rand.Rand) {
	t.Helper()
	n, _ := h.wantedLen(subset, len(blob))
	full, err := h.decodeAll(baseTS, subset)
	if err != nil {
		t.Fatalf("tags %v: the full decode of every tag succeeded, of these failed: %v", subset, err)
	}
	cut, err := DecodeBlob(blob[:n], baseTS, subset)
	if err != nil {
		t.Fatalf("tags %v: the blob cut at its %d-byte prefix (of %d) does not decode: %v", subset, n, len(blob), err)
	}
	if !reflect.DeepEqual(cut.Timestamps, full.Timestamps) || !reflect.DeepEqual(cut.Slots, full.Slots) || len(cut.Rows) != len(full.Rows) {
		t.Fatalf("tags %v: the prefix decodes other rows than the full decode", subset)
	}
	for i := range cut.Rows {
		if len(cut.Rows[i]) != lastWanted(subset, h.ntags)+1 {
			t.Fatalf("tags %v: row %d is %d tags wide, not as wide as the last wanted tag", subset, i, len(cut.Rows[i]))
		}
		for tag, v := range cut.Rows[i] {
			if math.Float64bits(v) != math.Float64bits(full.Rows[i][tag]) {
				t.Fatalf("tags %v: row %d tag %d is %v from the prefix, %v from the whole blob", subset, i, tag, v, full.Rows[i][tag])
			}
		}
	}
	// A part at a time: the first bytes, then through wherever it asks.
	part := *h
	have := min(len(blob), h.payOff+rng.Intn(64))
	for step := 0; ; step++ {
		part.b = blob[:have]
		m, more := part.wantedLen(subset, len(blob))
		if !more {
			if m != n {
				t.Fatalf("tags %v: read in parts the prefix is %d bytes, of the whole blob %d", subset, m, n)
			}
			break
		}
		if m <= have || step > len(blob) {
			t.Fatalf("tags %v: with %d bytes read wantedLen asks for %d more times over", subset, have, m)
		}
		have = min(len(blob), m+rng.Intn(16))
	}
	if n == len(blob) {
		return
	}
	cuts := []int{n - 1, h.payOff, h.payOff - 1}
	for i := 0; i < 6; i++ {
		cuts = append(cuts, rng.Intn(n))
	}
	for _, c := range cuts {
		if c < 0 || c >= n {
			continue
		}
		if b, err := DecodeBlob(blob[:c], baseTS, subset); !errors.Is(err, ErrCorruptBlob) || b != nil {
			t.Fatalf("tags %v: the blob cut at %d, short of its %d-byte prefix, decodes: %v", subset, c, n, err)
		}
	}
}

// hugeCountBlob is an eight-row, one-tag RTS record whose five-byte XOR
// column claims 1<<24 values: decoders used to allocate for the claim
// before reading a payload byte.
var hugeCountBlob = []byte{blobRTS, 1, 8, 20, 0xFF, 5, byte(compress.CodecXOR), 0x80, 0x80, 0x80, 0x08}

// preSummaryBlob is a two-row, one-tag RTS record as the writer before
// header summaries left it — zone maps, then the payload — built by hand,
// since no code writes one any more.
var preSummaryBlob = func() []byte {
	b := []byte{blobRTS | flagZoneMaps, 1, 2, 20}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1.5))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(2.5))
	col := compress.EncodeColumn(nil, []float64{1.5, 2.5}, compress.Policy{})
	b = binary.AppendUvarint(append(b, 0b11), uint64(len(col)))
	return append(b, col...)
}()

// damagedStub is a stub-flagged record whose header parses but carries no
// summary: nothing a writer produces, but what a damaged page can hold.
var damagedStub = []byte{flagStub | blobRTS, 1, 4, 10}

// TestDecodeDoesNotAllocateFromUntrustedCount: the blob layer bounds every
// column decode by the rows its own presence bitmap has.
func TestDecodeDoesNotAllocateFromUntrustedCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBlob(hugeCountBlob, 1000, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("err = %v, want compress.ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding an %d-byte blob allocated %d bytes", len(hugeCountBlob), grew)
	}
}

// FuzzWALPointDecode asserts the WAL point codec rejects corrupt records
// without panicking (replay feeds it checksummed but possibly torn bytes).
func FuzzWALPointDecode(f *testing.F) {
	f.Add(EncodePointWAL(model.Point{Source: 3, TS: 12345, Values: []float64{1, 2, 3}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePointWAL(b)
		if err == nil && len(p.Values) > 1<<20 {
			t.Fatalf("accepted %d values from a %d-byte record", len(p.Values), len(b))
		}
	})
}
