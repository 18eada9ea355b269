package odh

import "testing"

const goldenPreSubDir = "testdata/presub"

// TestPreSubBucketStoreCompat: a store of whole-blob summaries without
// sub-bucket blocks is refused, then upgraded: its per-source records gain
// the block (MG records never carry one, so they stay), and bucketed
// aggregates over windows off the bucket grid fold from it.
func TestPreSubBucketStoreCompat(t *testing.T) {
	// Base 40 ms: RTS blobs (16 points at 10 ms) span 160 ms, so every
	// bucketed query below has them straddling bucket edges.
	base := Options{BatchSize: 16, GroupSize: 4, BlobCacheBytes: 1 << 20, SubBucketMs: 40}
	dir, up := upgradeGoldenStore(t, goldenPreSubDir, base)
	if up.Rewritten >= up.Records {
		t.Fatalf("Upgrade rewrote %d of %d records; the MG records have nothing to gain", up.Rewritten, up.Records)
	}
	h, ref := openUpgradedPair(t, dir, base)
	// Unaligned windows at base-multiple widths: the shapes only the
	// sub-bucket path can fold without decoding.
	queries := []string{
		`SELECT id, ts, a, b FROM D WHERE ts >= 0 AND ts < 100000000`,
		`SELECT COUNT(*), COUNT(a), SUM(a), AVG(b), MIN(b), MAX(b) FROM D`,
		`SELECT TIME_BUCKET(40, ts), COUNT(*), SUM(a), MAX(b) FROM D WHERE ts >= 15 AND ts < 5995 GROUP BY TIME_BUCKET(40, ts)`,
		`SELECT TIME_BUCKET(120, ts), COUNT(*), MIN(b) FROM D WHERE ts >= 7 AND ts < 4321 GROUP BY TIME_BUCKET(120, ts)`,
		`SELECT id, TIME_BUCKET(200, ts), AVG(b) FROM D GROUP BY id, TIME_BUCKET(200, ts)`,
	}
	before := h.TotalStats()
	samePlans(t, h, ref, queries)
	if after := h.TotalStats(); after.SubBucketFolds <= before.SubBucketFolds {
		t.Fatalf("bucketed aggregates over the upgraded store never sub-folded: before=%d after=%d", before.SubBucketFolds, after.SubBucketFolds)
	}
	checkGoldenTruth(t, h, 0)
}
