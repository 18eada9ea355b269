package odh

import (
	"errors"
	"strconv"
	"testing"
)

// The tiered golden store holds a committed mix of hot, cold and stub
// records: records whose last timestamp fell below 4000 were compacted
// cold, below 2000 truncated to stubs.
const (
	goldenTieredDir = "testdata/tiered"
	goldenStubBelow = int64(2000)
)

// TestTieredStoreCompat: a tiered store is refused, then upgraded — its hot
// and cold records gain sub-bucket blocks in their tiers, its stubs stay
// byte for byte — and keeps answering aggregates over the stubbed prefix
// from their headers while a raw scan into it fails with the typed error.
func TestTieredStoreCompat(t *testing.T) {
	base := Options{BatchSize: 16, GroupSize: 4, BlobCacheBytes: 1 << 20}
	dir, _ := upgradeGoldenStore(t, goldenTieredDir, base)
	h, ref := openUpgradedPair(t, dir, base)
	ts, err := h.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.HotBlobs == 0 || ts.ColdBlobs == 0 || ts.StubBlobs == 0 {
		t.Fatalf("golden store lost its tier mix: %+v", ts)
	}

	// The decode plan reads rows, so it is the reference past the stubs.
	samePlans(t, h, ref, []string{
		`SELECT id, ts, a, b FROM D WHERE ts >= 2500 AND ts < 100000000`,
		`SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM D WHERE ts >= 2500`,
		`SELECT id, COUNT(*), SUM(a) FROM D WHERE ts >= 2500 GROUP BY id`,
		`SELECT TIME_BUCKET(1000, ts), COUNT(*), MAX(b) FROM D WHERE ts >= 2500 AND ts < 8000 GROUP BY TIME_BUCKET(1000, ts)`,
	})
	checkGoldenTruth(t, h, 2500)

	// A covered TIME_BUCKET over the stubbed prefix folds from stub
	// summaries: every stub's span fits inside the one 2000ms bucket.
	var bRows, bNonNull int64
	for _, p := range replayGoldenWorkload() {
		if p.ts < goldenStubBelow {
			bRows++
			if !p.aNull {
				bNonNull++
			}
		}
	}
	bucket, _ := diffFetch(t, h,
		`SELECT TIME_BUCKET(2000, ts), COUNT(*), COUNT(a) FROM D WHERE ts >= 0 AND ts < 2000 GROUP BY TIME_BUCKET(2000, ts)`)
	wantBucket := "0|" + strconv.FormatInt(bRows, 10) + "|" + strconv.FormatInt(bNonNull, 10)
	if len(bucket) != 1 || bucket[0] != wantBucket {
		t.Fatalf("covered bucket over stubs:\n got %v\nwant %s", bucket, wantBucket)
	}

	// A raw scan that reaches into the stubbed prefix fails loudly with
	// the typed error.
	if res, qerr := h.Query(`SELECT id, ts, a, b FROM D`); qerr == nil {
		if _, ferr := res.FetchAll(); !errors.Is(ferr, ErrStubbed) {
			t.Fatalf("raw scan over stubbed prefix: err = %v, want ErrStubbed", ferr)
		}
	} else if !errors.Is(qerr, ErrStubbed) {
		t.Fatalf("raw scan over stubbed prefix: err = %v, want ErrStubbed", qerr)
	}
}
