package tsstore

import (
	"fmt"
	"math"
	"sort"

	"odh/internal/btree"
	"odh/internal/model"
)

// The tier pass implements the storage lifecycle an operational historian
// runs between ingest and retention. Batch records age through three
// tiers, driven by per-schema age policies:
//
//	hot  — written by ingest/reorganization at BatchSize granularity with
//	       the paper's variability-aware codecs (possibly lossy);
//	cold — aged records coalesced into batches ColdBatchPoints wide and
//	       re-encoded at maximum codec effort, lossless and bit-exact
//	       against what a decode of the hot record returned;
//	stub — the record truncated to its header (zone maps + aggregate
//	       summary); COUNT/SUM/AVG/MIN/MAX and covered TIME_BUCKET
//	       roll-ups keep answering from the summary, raw-row scans over
//	       the stubbed range fail with StubbedRangeError.
//
// Only the per-source RTS/IRTS trees tier: MG records hold interleaved
// member rows whose per-source batches only exist after Reorganize rehomes
// them, so MG history enters the lifecycle through the reorganizer first.
//
// Crash safety: a pass mutates B+tree pages that become durable only at
// the page store's next two-phase checkpoint (Flush). A crash mid-pass
// recovers the previous checkpoint — every original record intact; a
// failed pass surfaces its error and the caller skips the checkpoint the
// same way failed coalescing does. No transition ever overwrites the only
// copy of a record before its replacement is in the same shadow-paged
// tree.

// TierPolicy ages one schema's batch records. Cutoffs are relative to the
// "now" passed to TierSchema; zero disables that transition.
type TierPolicy struct {
	// ColdAfterMs moves records whose last timestamp is older than
	// now-ColdAfterMs to the cold tier (coalesce + max-effort re-encode).
	ColdAfterMs int64
	// StubAfterMs truncates records older than now-StubAfterMs to
	// summary-only stubs. Usually >= ColdAfterMs so records compact
	// before their rows are dropped, but a stub-only policy is valid.
	StubAfterMs int64
	// ColdBatchPoints is the cold-tier batch granularity; <= 0 means
	// ColdBatchFactor * Config.BatchSize.
	ColdBatchPoints int
}

// ColdBatchFactor is the default multiple of the hot batch size used for
// cold-tier batches, amortizing per-record key and header overhead.
const ColdBatchFactor = 8

// TierResult summarizes one TierSchema pass.
type TierResult struct {
	// ColdCompacted counts hot records the cold pass consumed;
	// ColdWritten counts the cold records it produced.
	ColdCompacted int
	ColdWritten   int
	// Stubbed counts records truncated to summary-only stubs.
	Stubbed int
	// BytesBefore and BytesAfter measure the encoded bytes of every
	// record the pass touched, around the pass; BytesReclaimed is their
	// difference.
	BytesBefore    int64
	BytesAfter     int64
	BytesReclaimed int64
}

// TierStats is an on-demand census of the three batch trees by tier.
type TierStats struct {
	HotBlobs, ColdBlobs, StubBlobs int64
	HotBytes, ColdBytes, StubBytes int64
}

// StubbedRangeError reports a raw-row scan that touched a record whose
// rows were dropped by tier policy. It unwraps to ErrStubbedBlob so
// callers match it with errors.Is; the fields identify the record so an
// operator can tell which range degraded. This is explicit degradation,
// not corruption: lenient scans do not quarantine it.
type StubbedRangeError struct {
	Tree            string // "ts.rts", "ts.irts", or "ts.mg"
	Source          int64  // source id (group id for MG records)
	TS              int64  // record base timestamp
	FirstTS, LastTS int64  // the stub's summarized row range
}

func (e *StubbedRangeError) Error() string {
	return fmt.Sprintf("tsstore: rows of %s source=%d ts=%d (span [%d, %d]) were dropped by tier policy; only header aggregates remain",
		e.Tree, e.Source, e.TS, e.FirstTS, e.LastTS)
}

// Unwrap ties the error to ErrStubbedBlob for errors.Is.
func (e *StubbedRangeError) Unwrap() error { return ErrStubbedBlob }

// TierSchema runs one lifecycle pass over every source of a schema: first
// the cold pass (coalesce + re-encode records older than the cold cutoff),
// then the stub pass (truncate records older than the stub cutoff), so a
// record crossing both cutoffs in one call compacts before it stubs.
func (s *Store) TierSchema(schemaID int64, pol TierPolicy, now int64) (TierResult, error) {
	res := TierResult{}
	if pol.ColdAfterMs <= 0 && pol.StubAfterMs <= 0 {
		return res, nil
	}
	batchPoints := pol.ColdBatchPoints
	if batchPoints <= 0 {
		batchPoints = ColdBatchFactor * s.cfg.BatchSize
	}
	for _, src := range s.cat.SourcesBySchema(schemaID) {
		ds, ok := s.cat.Source(src)
		if !ok {
			continue
		}
		schema, ok := s.cat.SchemaByID(ds.SchemaID)
		if !ok {
			continue
		}
		if pol.ColdAfterMs > 0 {
			// Never coalesce across the stub cutoff: a cold blob
			// straddling it would keep its rows forever (stubbing skips
			// straddlers), starving the stub tier whenever the cold
			// granularity exceeds the gap between the two cutoffs.
			splitAt := int64(math.MinInt64)
			if pol.StubAfterMs > 0 {
				splitAt = now - pol.StubAfterMs
			}
			if err := s.coldCompactSource(ds, schema, now-pol.ColdAfterMs, splitAt, batchPoints, &res); err != nil {
				return res, err
			}
		}
		if pol.StubAfterMs > 0 {
			if err := s.stubSource(ds, schema, now-pol.StubAfterMs, &res); err != nil {
				return res, err
			}
		}
	}
	res.BytesReclaimed = res.BytesBefore - res.BytesAfter
	s.tierBytesReclaimed.Add(res.BytesReclaimed)
	return res, nil
}

// coldCompactSource rewrites one source's hot records whose data ends
// before the cutoff into cold batches: decode, merge, re-split at the cold
// granularity, re-encode at maximum effort. Values round-trip bit-exactly
// — the inputs are the already-round-tripped floats a scan of the hot
// record returned, and the cold codecs are verified lossless.
func (s *Store) coldCompactSource(ds *model.DataSource, schema *model.SchemaType, cutoff, splitAt int64, batchPoints int, res *TierResult) error {
	structure := ds.HistoricalStructure() // the one tree a source's own records live in
	// A record keyed at or past the cutoff starts there, so its last
	// timestamp cannot be older; the range stops at the cutoff key.
	del, put, err := s.rewriteRange(s.treeFor(structure), ds.ID, math.MinInt64, cutoff, func(recs []stored) (del, put []stored, err error) {
		del, all := decodeRecords(ds.ID, recs, func(r stored) bool {
			// Compacted or stubbed already, or straddling the cutoff: stays.
			_, _, last, ok := blobSpan(r)
			return BlobTier(r.blob) == TierHot && ok && last < cutoff
		})
		// Partition at the stub cutoff so no rewritten run straddles it (the
		// stub pass would skip such a run as a straddler forever).
		cut := sort.Search(len(all), func(i int) bool { return all[i].TS >= splitAt })
		for _, part := range [][]model.Point{all[:cut], all[cut:]} {
			put = append(put, s.encodeRuns(ds, schema, part, structure, s.coldOpts(schema), batchPoints)...)
		}
		return del, put, nil
	})
	res.ColdCompacted += len(del)
	res.ColdWritten += len(put)
	res.BytesBefore += blobBytes(del)
	res.BytesAfter += blobBytes(put)
	s.coldCompactions.Add(int64(len(del)))
	return err
}

// coldOpts is the cold tier's encoding: summary format, max-effort
// lossless columns.
func (s *Store) coldOpts(schema *model.SchemaType) encodeOpts {
	opts := s.encodeOptsFor(schema)
	opts.cold = true
	opts.legacy = false
	return opts
}

// stubSource truncates one source's records whose data ends before the
// cutoff to summary-only stubs, in place under the same key. Legacy
// pre-summary blobs are first re-encoded losslessly into the summary
// format (from the decode's round-tripped values, so the summary matches
// what scans were already serving) and the stub is that header. Row
// counts stay in the catalog: the summary still answers COUNT/SUM/AVG and
// partition elimination still needs the source's time range.
func (s *Store) stubSource(ds *model.DataSource, schema *model.SchemaType, cutoff int64, res *TierResult) error {
	structure := ds.HistoricalStructure()
	del, put, err := s.rewriteRange(s.treeFor(structure), ds.ID, math.MinInt64, cutoff, func(recs []stored) (del, put []stored, err error) {
		for _, r := range recs {
			_, _, last, ok := blobSpan(r)
			if BlobTier(r.blob) == TierStub || !ok || last >= cutoff {
				continue // already stubbed, unreadable, or straddling: keep rows
			}
			stub, ok := makeStubBlob(r.blob)
			if !ok {
				_, pts := decodeRecords(ds.ID, []stored{r}, nil)
				stub, ok = makeStubBlob(encodeRun(ds, schema, pts, structure, s.coldOpts(schema)))
			}
			if ok {
				del = append(del, r)
				put = append(put, stored{ts: r.ts, blob: stub})
			}
		}
		return del, put, nil
	})
	res.Stubbed += len(put)
	res.BytesBefore += blobBytes(del)
	res.BytesAfter += blobBytes(put)
	s.stubTransitions.Add(int64(len(put)))
	return err
}

// TierStats walks the three batch trees and counts records per tier from
// their format bytes — the census behind Store/TotalStats tier reporting.
func (s *Store) TierStats() (TierStats, error) {
	var st TierStats
	for _, tr := range []*btree.Tree{s.rts, s.irts, s.mg} {
		cur := tr.First()
		for cur.Valid() {
			v, err := cur.Value()
			if err != nil {
				return st, err
			}
			switch BlobTier(v) {
			case TierStub:
				st.StubBlobs++
				st.StubBytes += int64(len(v))
			case TierCold:
				st.ColdBlobs++
				st.ColdBytes += int64(len(v))
			default:
				st.HotBlobs++
				st.HotBytes += int64(len(v))
			}
			cur.Next()
		}
		if err := cur.Err(); err != nil {
			return st, err
		}
	}
	return st, nil
}
