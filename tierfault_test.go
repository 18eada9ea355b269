package odh

import (
	"errors"
	"fmt"
	"testing"

	"odh/internal/fault"
	"odh/internal/pagestore"
)

// Tier lifecycle fault tolerance, in the store's actual durability
// model: content pages are written in place and protected by detection
// (VerifyIntegrity) rather than rollback, while the meta epoch only
// advances on a successful Flush. The tier passes therefore promise:
//
//  1. If a crash kills the pass before any page write lands, the
//     reopened store is bit-for-bit the pre-tier checkpoint — no
//     original blob is lost by a torn transition.
//  2. If individual page writes fail without a crash, the error
//     surfaces, the live handle keeps answering coherently from its
//     in-memory state, and a retry after the fault clears completes
//     the transition.
//  3. Once the stub pass checkpoints, summary-answerable aggregates
//     return the exact pre-tier bytes across a crash/reopen.
func TestTierFaultCrashSafety(t *testing.T) {
	ff := fault.Wrap(pagestore.NewMemFile())
	open := func() *Historian {
		h, err := Open("", Options{
			BatchSize: 16, GroupSize: 3, PoolPages: 16,
			BlobCacheBytes: 1 << 20, Backing: ff,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := open()
	writeFaultWorkload(t, h, 120)
	checkAggCoherence(t, h, "pre-tier")

	// Pin the exact aggregate answers the summaries must keep producing
	// through every tier transition.
	wantGrand, _ := diffFetch(t, h, `SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM D`)
	wantByID, _ := diffFetch(t, h, `SELECT id, COUNT(*), SUM(a) FROM D GROUP BY id`)
	now, ok := h.LatestTS("env")
	if !ok {
		t.Fatal("no data timestamp")
	}
	coldPol := TierPolicy{ColdAfterMs: 100}
	stubPol := TierPolicy{ColdAfterMs: 100, StubAfterMs: 200}

	// Crash before anything lands: every write fails, so the tier pass
	// (or its Flush) errors with the file untouched. The reopened store
	// must be exactly the pre-tier checkpoint.
	ff.FailWritesAfter(0)
	_, tierErr := h.TierSchema("env", coldPol, now)
	flushErr := h.Flush()
	ff.FailWritesAfter(fault.Unlimited)
	if tierErr == nil && flushErr == nil {
		t.Fatal("injected write failure never surfaced from cold tier pass")
	}
	h = open() // crash: abandon the handle without Close
	checkAggCoherence(t, h, "after crashed cold pass")
	rep, err := h.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("integrity check failed after crashed cold pass:\n%s", rep)
	}
	ts, err := h.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.ColdBlobs != 0 || ts.StubBlobs != 0 {
		t.Fatalf("crashed tier pass leaked tiered blobs into the checkpoint: %+v", ts)
	}

	// Partial write failure without a crash: the countdown expires midway
	// through the cold pass's tree writes (pool evictions) or on the
	// follow-up Flush. The live handle must stay coherent, and the retry
	// must complete.
	ff.FailWritesAfter(3)
	_, tierErr = h.TierSchema("env", coldPol, now)
	flushErr = h.Flush()
	ff.FailWritesAfter(fault.Unlimited)
	if tierErr == nil && flushErr == nil {
		t.Fatal("injected write failure never surfaced from cold tier pass")
	}
	checkAggCoherence(t, h, "after failed cold pass")
	if _, err := h.TierSchema("env", coldPol, now); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	// Cold blobs are lossless: the raw-scan fold still works.
	checkAggCoherence(t, h, "after recovered cold pass")

	// Same for the stub pass. Raw scans may legitimately hit stubs once
	// the pass starts, so coherence here is against the pinned answers.
	ff.FailWritesAfter(2)
	_, tierErr = h.TierSchema("env", stubPol, now)
	flushErr = h.Flush()
	ff.FailWritesAfter(fault.Unlimited)
	if tierErr == nil && flushErr == nil {
		t.Fatal("injected write failure never surfaced from stub pass")
	}
	checkAggAgainst(t, h, wantGrand, wantByID, "after failed stub pass")
	if _, err := h.TierSchema("env", stubPol, now); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}

	// Raw scans over the stubbed history now fail loudly with the typed
	// error...
	if res, err := h.Query(`SELECT id, a, b FROM D`); err == nil {
		if _, ferr := res.FetchAll(); !errors.Is(ferr, ErrStubbed) {
			t.Fatalf("raw scan over stubbed history: err = %v, want ErrStubbed", ferr)
		}
	} else if !errors.Is(err, ErrStubbed) {
		t.Fatalf("raw scan over stubbed history: err = %v, want ErrStubbed", err)
	}

	// ...while summary-answerable aggregates keep returning the exact
	// pre-tier bytes, and a final crash/reopen preserves the stub tier.
	checkAggAgainst(t, h, wantGrand, wantByID, "after stub pass")
	h = open()
	checkAggAgainst(t, h, wantGrand, wantByID, "after reopen on stub tier")
	rep, err = h.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("integrity check failed on stub tier:\n%s", rep)
	}
	ts, err = h.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	if ts.StubBlobs == 0 {
		t.Fatalf("stub transition did not survive the checkpoint: %+v", ts)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkAggAgainst compares pushdown aggregates to answers captured
// before tiering — usable when stubs make the raw-scan fold impossible.
func checkAggAgainst(t *testing.T, h *Historian, wantGrand, wantByID []string, where string) {
	t.Helper()
	grand, _ := diffFetch(t, h, `SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM D`)
	if len(grand) != len(wantGrand) || grand[0] != wantGrand[0] {
		t.Fatalf("%s: grand total drifted:\n got %v\nwant %v", where, grand, wantGrand)
	}
	byID, _ := diffFetch(t, h, `SELECT id, COUNT(*), SUM(a) FROM D GROUP BY id`)
	got := map[string]bool{}
	for _, r := range byID {
		got[r] = true
	}
	if len(byID) != len(wantByID) {
		t.Fatalf("%s: GROUP BY id produced %d groups, want %d", where, len(byID), len(wantByID))
	}
	for _, line := range wantByID {
		if !got[line] {
			t.Fatalf("%s: GROUP BY id missing %q in %v", where, line, byID)
		}
	}
}

// TestUpgradeFaultCrashSafety is the same promise for the format upgrade,
// which replaces every old-format record under its own key: a crashed or
// torn UpgradeBlobs never loses or duplicates a row — every record stays
// readable at its old or its new format — and a retry finishes the job.
func TestUpgradeFaultCrashSafety(t *testing.T) {
	ff := fault.Wrap(pagestore.NewMemFile())
	open := func(legacy bool) *Historian {
		h, err := Open("", Options{
			BatchSize: 16, GroupSize: 3, PoolPages: 16,
			BlobCacheBytes: 1 << 20, Backing: ff, legacyBlobFormat: legacy,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := open(true)
	writeFaultWorkload(t, h, 120)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	const scan = `SELECT id, ts, a, b FROM D`
	wantRows, _ := diffFetch(t, h, scan)
	wantGrand, _ := diffFetch(t, h, `SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM D`)
	wantByID, _ := diffFetch(t, h, `SELECT id, COUNT(*), SUM(a) FROM D GROUP BY id`)
	check := func(h *Historian, where string) {
		t.Helper()
		if rows, _ := diffFetch(t, h, scan); fmt.Sprint(rows) != fmt.Sprint(wantRows) {
			t.Fatalf("%s: scan returned %d rows, want the original %d exactly", where, len(rows), len(wantRows))
		}
		checkAggAgainst(t, h, wantGrand, wantByID, where)
	}
	verify := func(h *Historian, where string) {
		t.Helper()
		rep, err := h.VerifyIntegrity()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: integrity check failed:\n%s", where, rep)
		}
	}

	// Crash before anything lands: the reopened store is the pre-upgrade
	// checkpoint, every record still at its old format.
	h = open(false)
	ff.FailWritesAfter(0)
	_, upErr := h.UpgradeBlobs()
	flushErr := h.Flush()
	ff.FailWritesAfter(fault.Unlimited)
	if upErr == nil && flushErr == nil {
		t.Fatal("injected write failure never surfaced from the upgrade")
	}
	h = open(false) // crash: abandon the handle without Close
	check(h, "after crashed upgrade")
	verify(h, "after crashed upgrade")

	// Torn upgrade without a crash: some records rewritten, some not. The
	// live handle answers exactly, and the retry upgrades the rest.
	ff.FailWritesAfter(3)
	_, upErr = h.UpgradeBlobs()
	flushErr = h.Flush()
	ff.FailWritesAfter(fault.Unlimited)
	if upErr == nil && flushErr == nil {
		t.Fatal("injected write failure never surfaced from the upgrade")
	}
	check(h, "after torn upgrade")
	if _, err := h.UpgradeBlobs(); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	check(h, "after recovered upgrade")

	// The finished upgrade survives a crash/reopen with nothing left to do.
	h = open(false)
	check(h, "after reopen on upgraded store")
	verify(h, "after reopen on upgraded store")
	if up, err := h.UpgradeBlobs(); err != nil || up.Rewritten != 0 || up.Records == 0 {
		t.Fatalf("UpgradeBlobs on the upgraded store = %+v (err %v), want 0 rewritten", up, err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}
