package odh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"odh/internal/btree"
	"odh/internal/compress"
	"odh/internal/keyenc"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
)

// The golden stores under testdata were written before the ValueBlob
// format marker, each by a writer this build no longer has:
// testdata/presummary holds pre-summary (v1) records, testdata/presub
// whole-blob summaries without sub-bucket blocks (v2), and testdata/tiered
// a v2 mix of hot, cold and stub records. They are inputs of the upgrade
// tool only, and they keep it honest against real old bytes: Open refuses
// each with ErrNeedsUpgrade and leaves its page file as it was, Upgrade
// brings it to the current format and marks it, and the upgraded store
// answers what the generator wrote. Each holds the same stream, written at
// BatchSize 16 and GroupSize 4 (2 RTS, 1 IRTS and 4 MG sources, 600
// points each); replayGoldenWorkload is its truth.

const (
	goldenPreSummaryDir = "testdata/presummary"
	goldenSrcs          = 7
	goldenRows          = 600 * goldenSrcs
)

// goldenPoint is one write of the golden stream; src is the source's
// registration index, id src+1.
type goldenPoint struct {
	src   int
	ts    int64
	a, b  float64
	aNull bool
}

// replayGoldenWorkload regenerates the exact point stream the golden
// stores hold (same seed, same draw order), so the compat checks compare
// the committed bytes against independently computed truth rather than
// against another code path over the same bytes.
func replayGoldenWorkload() []goldenPoint {
	type srcDef struct {
		regular  bool
		interval int64
	}
	srcs := []srcDef{
		{true, 10}, {true, 10}, {false, 25},
		{true, 10_000}, {true, 10_000}, {true, 10_000}, {true, 10_000},
	}
	rng := rand.New(rand.NewSource(42))
	var pts []goldenPoint
	for i := 0; i < 600; i++ {
		for s, def := range srcs {
			ts := int64(i+1) * def.interval
			if !def.regular {
				ts += rng.Int63n(10)
			}
			a := float64(rng.Intn(8))
			b := float64(rng.Intn(100))
			null := rng.Intn(5) == 0
			if null {
				a = NullValue
			}
			pts = append(pts, goldenPoint{src: s, ts: ts, a: a, b: b, aNull: null})
		}
	}
	return pts
}

// copyStore copies a store's page file into a fresh directory.
func copyStore(t *testing.T, srcDir string) string {
	t.Helper()
	src, err := os.Open(filepath.Join(srcDir, "odh.pages"))
	if err != nil {
		t.Fatalf("store %s missing: %v", srcDir, err)
	}
	defer src.Close()
	dir := t.TempDir()
	dst, err := os.Create(filepath.Join(dir, "odh.pages"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// upgradeGoldenStore upgrades a copy of a golden store under opts and holds
// the upgrade to its contract: Open refuses the copy with ErrNeedsUpgrade,
// naming the command, and leaves its page file byte for byte as it was;
// Upgrade rewrites records, re-derives the statistics every golden store
// lacks (they predate the per-tier span bounds) and moves no record
// between tiers; a second Upgrade rewrites none. It returns the upgraded
// directory and the first pass's result.
func upgradeGoldenStore(t *testing.T, srcDir string, opts Options) (string, MaintenanceResult) {
	t.Helper()
	dir := copyStore(t, srcDir)
	pages := filepath.Join(dir, "odh.pages")
	before, err := os.ReadFile(pages)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(dir, opts)
	if !errors.Is(err, ErrNeedsUpgrade) || !strings.Contains(err.Error(), "odh-cli -dir "+dir+" upgrade") {
		if err == nil {
			h.Close()
		}
		t.Fatalf("Open(%s) = %v, want ErrNeedsUpgrade naming the upgrade command", srcDir, err)
	}
	if after, err := os.ReadFile(pages); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused Open changed the page file (err %v)", err)
	}
	tiers := tierCensus(t, copyStore(t, srcDir), opts)
	up, err := Upgrade(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if up.Rewritten == 0 || up.StatsMoved == 0 {
		t.Fatalf("Upgrade(%s) = %+v: rewrote no record or re-derived no home's statistics", srcDir, up)
	}
	if after := tierCensus(t, dir, opts); after != tiers {
		t.Fatalf("Upgrade moved records between tiers or touched a stub: %+v -> %+v", tiers, after)
	}
	if again, err := Upgrade(dir, opts); err != nil || again.Rewritten != 0 || again.Records != up.Records || again.StatsMoved != 0 {
		t.Fatalf("second Upgrade = %+v (err %v), want 0 of %d records rewritten", again, err, up.Records)
	}
	return dir, up
}

// tierCensus counts a store's records by tier — with stub bytes, which
// the upgrade must leave alone — through Upgrade's assembly, so it reads
// stores Open refuses too.
func tierCensus(t *testing.T, dir string, opts Options) TierStats {
	t.Helper()
	h, err := open(dir, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	st, err := h.TierStats()
	if err != nil {
		t.Fatal(err)
	}
	st.HotBytes, st.ColdBytes = 0, 0
	return st
}

// openUpgradedPair opens an upgraded store as opts asks and a byte-identical
// copy of it with the decode plan (DisableAggPushdown), the reference every
// pushed-down answer must equal byte for byte.
func openUpgradedPair(t *testing.T, dir string, opts Options) (h, ref *Historian) {
	t.Helper()
	openAt := func(dir string, opts Options) *Historian {
		h, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("open upgraded store: %v", err)
		}
		t.Cleanup(func() { h.Close() })
		return h
	}
	refOpts := opts
	refOpts.DisableAggPushdown = true
	return openAt(dir, opts), openAt(copyStore(t, dir), refOpts)
}

// samePlans fails unless every query answers byte for byte the same on h
// as on the decode-plan reference.
func samePlans(t *testing.T, h, ref *Historian, queries []string) {
	t.Helper()
	for _, sql := range queries {
		got, _ := diffFetch(t, h, sql)
		want, _ := diffFetch(t, ref, sql)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: pushdown diverged from the decode plan:\n got %v\nwant %v", sql, got, want)
		}
	}
}

// checkGoldenTruth holds an upgraded golden store to the stream it was
// written from: the grand and per-source aggregates over the whole history
// (stubs answer from their headers), and every row at or after from.
func checkGoldenTruth(t *testing.T, h *Historian, from int64) {
	t.Helper()
	truth := replayGoldenWorkload()
	if len(truth) != goldenRows {
		t.Fatalf("replay produced %d rows, want %d", len(truth), goldenRows)
	}
	var nonNullA int64
	var sumA float64
	minB, maxB := math.Inf(1), math.Inf(-1)
	perSrc := make([]struct {
		count int64
		sumA  float64
	}, goldenSrcs)
	var rows []string
	for _, p := range truth {
		perSrc[p.src].count++
		a := "∅"
		if !p.aNull {
			nonNullA++
			sumA += p.a
			perSrc[p.src].sumA += p.a
			a = relationalFloatString(p.a)
		}
		minB, maxB = math.Min(minB, p.b), math.Max(maxB, p.b)
		if p.ts >= from {
			rows = append(rows, fmt.Sprintf("%d|%d|%s|%s", p.src+1, p.ts, a, relationalFloatString(p.b)))
		}
	}
	grand, _ := diffFetch(t, h, `SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM D`)
	wantGrand := fmt.Sprintf("%d|%d|%s|%s|%s", len(truth), nonNullA, floatCell(sumA, nonNullA == 0), floatCell(minB, false), floatCell(maxB, false))
	if len(grand) != 1 || grand[0] != wantGrand {
		t.Fatalf("grand total:\n got %v\nwant %s", grand, wantGrand)
	}
	byID, _ := diffFetch(t, h, `SELECT id, COUNT(*), SUM(a) FROM D GROUP BY id`)
	if len(byID) != goldenSrcs {
		t.Fatalf("GROUP BY id produced %d groups, want %d", len(byID), goldenSrcs)
	}
	sort.Slice(byID, func(i, j int) bool {
		a, _ := strconv.ParseInt(strings.SplitN(byID[i], "|", 2)[0], 10, 64)
		b, _ := strconv.ParseInt(strings.SplitN(byID[j], "|", 2)[0], 10, 64)
		return a < b
	})
	for i, line := range byID {
		if want := fmt.Sprintf("%d|%d|%s", i+1, perSrc[i].count, floatCell(perSrc[i].sumA, false)); line != want {
			t.Fatalf("group %d = %q, want %q", i, line, want)
		}
	}
	_, got := diffFetch(t, h, fmt.Sprintf(`SELECT id, ts, a, b FROM D WHERE ts >= %d AND ts < 100000000`, from))
	sort.Strings(rows)
	if strings.Join(got, "\n") != strings.Join(rows, "\n") {
		t.Fatalf("rows from ts %d: got %d, want the %d written", from, len(got), len(rows))
	}
}

// TestPreSummaryStoreCompat: a store of pre-summary records is refused,
// then upgraded record by record, and its aggregates fold from the headers
// the upgrade gave them.
func TestPreSummaryStoreCompat(t *testing.T) {
	base := Options{BatchSize: 16, GroupSize: 4, BlobCacheBytes: 1 << 20}
	dir, up := upgradeGoldenStore(t, goldenPreSummaryDir, base)
	if up.Rewritten != up.Records {
		t.Fatalf("Upgrade rewrote %d of %d pre-summary records", up.Rewritten, up.Records)
	}
	h, ref := openUpgradedPair(t, dir, base)
	queries := []string{
		`SELECT id, ts, a, b FROM D WHERE ts >= 0 AND ts < 100000000`,
		`SELECT COUNT(*), COUNT(a), SUM(a), AVG(b), MIN(b), MAX(b) FROM D`,
		`SELECT id, COUNT(*), SUM(a) FROM D GROUP BY id`,
		`SELECT TIME_BUCKET(1000, ts), COUNT(*), MAX(b) FROM D WHERE ts < 4000 GROUP BY TIME_BUCKET(1000, ts)`,
		`SELECT COUNT(*), AVG(b) FROM D WHERE a >= 2 AND a <= 5`,
	}
	before := h.TotalStats()
	samePlans(t, h, ref, queries)
	if after := h.TotalStats(); after.SummaryHits <= before.SummaryHits {
		t.Fatalf("aggregates over the upgraded store never folded a header summary: before=%d after=%d", before.SummaryHits, after.SummaryHits)
	}
	checkGoldenTruth(t, h, 0)
}

// TestFsckNamesPreSummaryRecord: a served store holds one blob format, so
// a record without a header summary inside it is corruption, and fsck
// names it although its rows decode.
func TestFsckNamesPreSummaryRecord(t *testing.T) {
	file := pagestore.NewMemFile()
	h, err := Open("", Options{Backing: file})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := h.CreateSchema(SchemaType{Name: "env", Tags: []TagDef{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// A two-row RTS record as the pre-summary writer left it: flag byte
	// (RTS, zone maps), one tag, two rows 10 ms apart, the zone map, then
	// the presence bitmap and the tag's column.
	blob := binary.LittleEndian.AppendUint64([]byte{0x41, 1, 2, 20}, math.Float64bits(1.5))
	blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(2.5))
	col := compress.EncodeColumn(nil, []float64{1.5, 2.5}, compress.Policy{})
	blob = append(binary.AppendUvarint(append(blob, 0b11), uint64(len(col))), col...)
	page, err := pagestore.Open(file, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.Open(page, "ts.rts")
	if err == nil {
		err = tree.Put(keyenc.SourceTime(ds.ID, 1000), blob)
	}
	if cerr := page.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if h, err = Open("", Options{Backing: file}); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ts.rts source=%d ts=1000", ds.ID); rep.OK() || len(rep.CorruptBlobs) != 1 || rep.CorruptBlobs[0] != want {
		t.Fatalf("fsck over a pre-summary record: %v, want exactly %q corrupt\n%s", rep.CorruptBlobs, want, rep)
	}
}

// goldenStoreWith copies the pre-summary golden store and puts blob under
// source 1's key ts in its RTS tree, below every layer that would check it.
func goldenStoreWith(t *testing.T, ts int64, blob []byte) string {
	t.Helper()
	dir := copyStore(t, goldenPreSummaryDir)
	f, err := pagestore.OpenOSFile(filepath.Join(dir, "odh.pages"))
	if err != nil {
		t.Fatal(err)
	}
	page, err := pagestore.Open(f, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.Open(page, "ts.rts")
	if err == nil {
		err = tree.Put(keyenc.SourceTime(1, ts), blob)
	}
	if cerr := page.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLenientUpgradeSalvagesCorruptBlobs: one corrupt blob keeps Upgrade
// from marking a store, its report naming the blob; under RecoverLenient
// Upgrade marks it, lenient scans skip the blob, and fsck goes on naming it.
func TestLenientUpgradeSalvagesCorruptBlobs(t *testing.T) {
	// An RTS flag byte, then a tag count that does not parse.
	dir := goldenStoreWith(t, 90_000_000, []byte{0x01, 0xff})
	const want = "ts.rts source=1 ts=90000000"
	opts := Options{BatchSize: 16, GroupSize: 4}
	if _, err := Upgrade(dir, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Upgrade over a corrupt blob = %v, want the report naming %s", err, want)
	}
	if h, err := Open(dir, opts); !errors.Is(err, ErrNeedsUpgrade) {
		if err == nil {
			h.Close()
		}
		t.Fatalf("Open after the refused Upgrade = %v, want ErrNeedsUpgrade", err)
	}
	opts.Recovery = RecoverLenient
	if _, err := Upgrade(dir, opts); err != nil {
		t.Fatalf("lenient Upgrade: %v", err)
	}
	h, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	checkGoldenTruth(t, h, 0)
	rep, err := h.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptBlobs) != 1 || rep.CorruptBlobs[0] != want || len(rep.CorruptPages)+len(rep.CorruptTrees)+len(rep.StaleStats) != 0 {
		t.Fatalf("fsck after the lenient Upgrade: want exactly %q corrupt\n%s", want, rep)
	}
}

// TestUpgradeNamesRowOrientedRecord: a record of the removed row-oriented
// layout (flag 0x80) fails Upgrade, lenient or not, with a corrupt-blob
// error naming the layout, and the store stays unmarked.
func TestUpgradeNamesRowOrientedRecord(t *testing.T) {
	dir := goldenStoreWith(t, 90_000_000, []byte{0x80 | 0x41, 1, 2, 20})
	for _, mode := range []RecoveryMode{RecoverFailFast, RecoverLenient} {
		opts := Options{BatchSize: 16, GroupSize: 4, Recovery: mode}
		if _, err := Upgrade(dir, opts); !errors.Is(err, tsstore.ErrCorruptBlob) || !strings.Contains(err.Error(), "row-oriented") {
			t.Fatalf("Upgrade (recovery %d) over a row-oriented record = %v, want ErrCorruptBlob naming the layout", mode, err)
		}
		if h, err := Open(dir, opts); !errors.Is(err, ErrNeedsUpgrade) {
			if err == nil {
				h.Close()
			}
			t.Fatalf("Open after the failed Upgrade = %v, want ErrNeedsUpgrade", err)
		}
	}
}
