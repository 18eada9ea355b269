package tsstore

import (
	"fmt"

	"odh/internal/btree"
	"odh/internal/model"
)

// The tier lifecycle is two steps of the maintenance planner (maintain.go):
// batch records age through three tiers, driven by per-schema age
// policies. Hot records are written by ingest and reorganization at
// BatchSize granularity with the paper's variability-aware (possibly
// lossy) codecs; cold ones are aged records coalesced ColdBatchPoints wide
// and re-encoded at maximum codec effort, lossless and bit-exact against a
// decode of the hot ones; a stub is a record truncated to its header (zone
// maps, summary, sub-buckets), which keeps answering aggregates and covered
// TIME_BUCKET roll-ups while raw-row scans over it fail with
// StubbedRangeError. Only per-source ranges tier: MG history enters the
// lifecycle through the reorganizer.

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

// coldOpts is the cold tier's encoding: max-effort lossless columns.
func (s *Store) coldOpts(schema *model.SchemaType) encodeOpts {
	opts := s.encodeOptsFor(schema)
	opts.cold = true
	return opts
}

// TierStats walks the three batch trees and counts records per tier from
// their format bytes — the census odh-cli's .stats prints after the counters.
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
