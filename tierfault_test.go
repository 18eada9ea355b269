package odh

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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

// TestUpgradeFaultCrashSafety holds Upgrade to its promise on a copy of
// the pre-summary golden store whose page files are fault-wrapped: Upgrade
// writes only a copy of the page file, and renames it over the store once
// the copy is upgraded, verified and marked. So a write that fails anywhere
// — before the first lands, inside the pass, at the marker's checkpoint,
// at the last — leaves the page file byte for byte as it was, Open refusing
// it, and the re-run after the fault clears upgrades it with every row
// intact.
func TestUpgradeFaultCrashSafety(t *testing.T) {
	dir := copyStore(t, goldenPreSummaryDir)
	pages := filepath.Join(dir, "odh.pages")
	golden, err := os.ReadFile(pages)
	if err != nil {
		t.Fatal(err)
	}
	// Each page file opened gets a fault wrapper armed with failAfter; last
	// is the newest one.
	failAfter, last := fault.Unlimited, (*fault.File)(nil)
	defer func(orig func(string) (pagestore.File, error)) { openPageFile = orig }(openPageFile)
	openPageFile = func(path string) (pagestore.File, error) {
		f, err := pagestore.OpenOSFile(path)
		if err != nil {
			return nil, err
		}
		last = fault.Wrap(f)
		last.FailWritesAfter(failAfter)
		return last, nil
	}
	opts := Options{BatchSize: 16, GroupSize: 4, PoolPages: 16, BlobCacheBytes: 1 << 20}

	// The tear points are counted on dry runs over other copies: the writes
	// of the pass up to its verified checkpoint, and of a whole Upgrade.
	h, err := open(copyStore(t, goldenPreSummaryDir), opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.UpgradeBlobs(); err != nil {
		t.Fatal(err)
	}
	if rep, err := h.VerifyIntegrity(); err != nil || !rep.OK() {
		t.Fatalf("dry run: %v\n%s", err, rep)
	}
	passWrites := int(last.Counters().Writes)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Upgrade(copyStore(t, goldenPreSummaryDir), opts); err != nil {
		t.Fatal(err)
	}
	allWrites := int(last.Counters().Writes)
	if passWrites <= 3 || allWrites <= passWrites+1 {
		t.Fatalf("dry runs wrote %d pages in the pass, %d in all: too few to tear inside each step", passWrites, allWrites)
	}

	for _, tear := range []struct {
		where  string
		writes int
	}{
		{"before the first write", 0},
		{"inside the pass", 3},
		{"at the marker's checkpoint", passWrites},
		{"at the last write", allWrites - 1},
	} {
		failAfter = tear.writes
		_, err := Upgrade(dir, opts)
		failAfter = fault.Unlimited
		if err == nil {
			t.Fatalf("torn %s: the injected write failure never surfaced from Upgrade", tear.where)
		}
		if now, err := os.ReadFile(pages); err != nil || !bytes.Equal(now, golden) {
			t.Fatalf("torn %s: Upgrade changed the page file (err %v)", tear.where, err)
		}
		if _, err := os.Stat(pages + ".upgrade"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("torn %s: the copy was left behind (stat: %v)", tear.where, err)
		}
		if h, err := Open(dir, opts); !errors.Is(err, ErrNeedsUpgrade) {
			if err == nil {
				h.Close()
			}
			t.Fatalf("torn %s: Open = %v, want ErrNeedsUpgrade", tear.where, err)
		}
	}

	// The re-run upgrades every record, and every row is intact.
	up, err := Upgrade(dir, opts)
	if err != nil || up.Rewritten == 0 || up.Rewritten != up.Records {
		t.Fatalf("re-run after the tears = %+v (err %v), want every pre-summary record rewritten", up, err)
	}
	if h, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	checkGoldenTruth(t, h, 0)
	rep, err := h.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("integrity check failed after the re-run:\n%s", rep)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if again, err := Upgrade(dir, opts); err != nil || again.Rewritten != 0 || again.Records != up.Records {
		t.Fatalf("Upgrade on the upgraded store = %+v (err %v), want 0 of %d records rewritten", again, err, up.Records)
	}
}
