package odh

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"odh/internal/btree"
	"odh/internal/keyenc"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
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
// None of its records holds more than 128 rows, so the upgrade writes every
// one byte for byte as the upgrade to format 3 did: the digest is that
// upgrade's.
func TestTieredStoreCompat(t *testing.T) {
	base := Options{BatchSize: 16, GroupSize: 4, BlobCacheBytes: 1 << 20}
	dir, _ := upgradeGoldenStore(t, goldenTieredDir, base)
	recs := batchRecords(t, dir)
	for k, blob := range recs {
		if batch, err := tsstore.DecodeBlob(blob, 0, nil); err == nil && len(batch.Rows) > 128 {
			t.Fatalf("record %q holds %d rows: the fixture changed", k, len(batch.Rows))
		}
	}
	if got := recordsDigest(recs); got != "de09e4f5184742344cc099cb0b694cc59c8856b7d0fd15caef13d5a02fc22ae2" {
		t.Fatalf("upgraded records digest %s, want de09e4f5…, the format-3 upgrade's", got)
	}
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

// goldenV3Dir holds the golden stream as the format-3 writer stored it,
// marked with format 3: written at BatchSize 16 and GroupSize 4, then one
// tier pass at now = 6 000 000 with ColdAfterMs now-5000, StubAfterMs
// now-1000 and 256-point cold batches. Its cold records hold 141, 153 and
// 256 rows, each column in one piece; its hot, MG and stub records 16 rows
// or fewer.
const goldenV3Dir = "testdata/tiered3"

// TestFormat3StoreUpgrade: a store marked with format 3 is refused, then
// upgraded. Every record of more than 128 rows is re-encoded in segments —
// a one-row window at its last row decodes fewer values than before, and
// at most a segment per column — while every other record stays byte for
// byte; every query, aggregate and the integrity report answer as the
// format-3 records decoded through the same decoder did, and a second
// upgrade rewrites nothing.
func TestFormat3StoreUpgrade(t *testing.T) {
	opts := Options{BatchSize: 16, GroupSize: 4}
	dir := copyStore(t, goldenV3Dir)
	if h, err := Open(dir, opts); !errors.Is(err, ErrNeedsUpgrade) {
		if err == nil {
			h.Close()
		}
		t.Fatalf("Open(format 3) = %v, want ErrNeedsUpgrade", err)
	}
	before := batchRecords(t, dir)
	queries := []string{
		`SELECT id, ts, a, b FROM D WHERE ts >= 1000`,
		`SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM D`,
		`SELECT id, COUNT(*), SUM(a), MAX(b) FROM D GROUP BY id`,
		`SELECT TIME_BUCKET(1000, ts), COUNT(*), SUM(b) FROM D WHERE ts >= 0 AND ts < 9000 GROUP BY TIME_BUCKET(1000, ts)`,
		`SELECT id, COUNT(*), MAX(a) FROM D WHERE ts >= 1234 AND ts < 4321 GROUP BY id`,
		`SELECT id, ts, b FROM D WHERE ts >= 2345 AND ts < 2400`,
	}
	// The records of more than 128 rows, by source and last row.
	type long struct {
		key      string
		src, ts  int64
		rows     int
		segments int
	}
	var longs []long
	for k, blob := range before {
		tree, key, _ := strings.Cut(k, "/")
		src, ts, err := keyenc.DecodeSourceTime([]byte(key))
		batch, derr := tsstore.DecodeBlob(blob, ts, nil)
		if err != nil || derr != nil || tree == "ts.mg" || len(batch.Rows) <= 128 {
			continue
		}
		longs = append(longs, long{k, src, batch.Timestamps[len(batch.Timestamps)-1], len(batch.Rows), 0})
	}
	if len(longs) != 5 {
		t.Fatalf("%d records of more than 128 rows, want the fixture's 5", len(longs))
	}
	// What the format-3 records answer, through the one decoder, and what a
	// one-row window at each long record's last row decodes.
	answers := func(h *Historian) (rows [][]string, decoded []int64, report string) {
		for _, sql := range queries {
			got, _ := diffFetch(t, h, sql)
			rows = append(rows, got)
		}
		for _, l := range longs {
			was := h.TotalStats().DecodedValues
			if got, _ := diffFetch(t, h, fmt.Sprintf(`SELECT id, ts, a, b FROM D WHERE id = %d AND ts = %d`, l.src, l.ts)); len(got) != 1 {
				t.Fatalf("%s: the last row's window returned %v", l.key, got)
			}
			decoded = append(decoded, h.TotalStats().DecodedValues-was)
		}
		rep, err := h.VerifyIntegrity()
		if err != nil {
			t.Fatal(err)
		}
		return rows, decoded, rep.String()
	}
	pre, err := open(copyStore(t, dir), opts, false)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wasDecoded, wantReport := answers(pre)
	pre.Close()

	up, err := Upgrade(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if up.Rewritten != len(longs) {
		t.Fatalf("Upgrade = %+v, want the %d long records rewritten", up, len(longs))
	}
	after := batchRecords(t, dir)
	if len(after) != len(before) {
		t.Fatalf("%d records after the upgrade, %d before", len(after), len(before))
	}
	for k, blob := range before {
		isLong := false
		for _, l := range longs {
			isLong = isLong || l.key == k
		}
		if changed := !bytes.Equal(after[k], blob); changed != isLong {
			t.Fatalf("record %q: changed %v, long %v", k, changed, isLong)
		}
	}
	h, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	gotRows, decoded, report := answers(h)
	for i, sql := range queries {
		if fmt.Sprint(gotRows[i]) != fmt.Sprint(wantRows[i]) {
			t.Fatalf("%s: after the upgrade\n got %v\nwant %v", sql, gotRows[i], wantRows[i])
		}
	}
	if report != wantReport {
		t.Fatalf("integrity report after the upgrade:\n%s\nbefore:\n%s", report, wantReport)
	}
	for i, l := range longs {
		// A timestamp and two tag values, each from its segment's start.
		if decoded[i] >= wasDecoded[i] || decoded[i] > 3*128 {
			t.Fatalf("%s (%d rows): its last row's window decoded %d values, %d before the upgrade", l.key, l.rows, decoded[i], wasDecoded[i])
		}
	}
	checkGoldenTruth(t, h, 1000)
	if again, err := Upgrade(dir, opts); err != nil || again.Rewritten != 0 || again.StatsMoved != 0 {
		t.Fatalf("second Upgrade = %+v (err %v), want nothing rewritten", again, err)
	}
}

// TestNewerFormatMarkerRefused: a store marked with a format newer than
// the build reads is refused by Open and by Upgrade, as a format-3 build
// refuses a format-4 store: neither half-reads records it cannot decode.
func TestNewerFormatMarkerRefused(t *testing.T) {
	dir := t.TempDir()
	h, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateSchema(SchemaType{Name: "env", Tags: []TagDef{{Name: "a"}}}); err != nil {
		t.Fatal(err)
	}
	if err := h.cat.MarkFormat(tsstore.BlobFormat + 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("this build reads format %d", tsstore.BlobFormat)
	if h, err := Open(dir, Options{}); err == nil || errors.Is(err, ErrNeedsUpgrade) || !strings.Contains(err.Error(), want) {
		if err == nil {
			h.Close()
		}
		t.Fatalf("Open(newer format) = %v, want the marker refused", err)
	}
	if _, err := Upgrade(dir, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Upgrade(newer format) = %v, want the marker refused", err)
	}
}

// batchRecords reads every record of a store's three batch trees, keyed by
// tree name and key, from a copy of its page file (closing a page store
// checkpoints it).
func batchRecords(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	f, err := pagestore.OpenOSFile(filepath.Join(copyStore(t, dir), "odh.pages"))
	if err != nil {
		t.Fatal(err)
	}
	page, err := pagestore.Open(f, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer page.Close()
	recs := map[string][]byte{}
	for _, name := range []string{"ts.rts", "ts.irts", "ts.mg"} {
		tree, err := btree.Open(page, name)
		if err != nil {
			t.Fatal(err)
		}
		cur := tree.First()
		for ; cur.Valid(); cur.Next() {
			v, err := cur.Value()
			if err != nil {
				t.Fatal(err)
			}
			recs[name+"/"+string(cur.Key())] = append([]byte(nil), v...)
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// recordsDigest is a sha256 over records in key order.
func recordsDigest(recs map[string][]byte) string {
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(binary.AppendUvarint(nil, uint64(len(k))))
		h.Write([]byte(k))
		h.Write(binary.AppendUvarint(nil, uint64(len(recs[k]))))
		h.Write(recs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}
