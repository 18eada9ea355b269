package odh

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"odh/internal/btree"
	"odh/internal/catalog"
	"odh/internal/keyenc"
)

// statsStore writes one irregular source's history (a few dozen records)
// into a directory store and returns the source id and what a scan of it
// returns.
func statsStore(t *testing.T, dir string) (id int64, rows []string) {
	t.Helper()
	h, err := Open(dir, Options{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	schema := setupEnviron(t, h)
	ds, err := h.RegisterSource(DataSource{SchemaID: schema.ID, IntervalMs: 100})
	if err != nil {
		t.Fatal(err)
	}
	w := h.Writer()
	for i := 0; i < 500; i++ {
		if err := w.WritePoint(ds.ID, int64(i)*100+int64(i%7), float64(i), float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, _ = diffFetch(t, h, statsQuery)
	return ds.ID, rows
}

const statsQuery = `SELECT id, timestamp, temperature FROM environ_data_v WHERE timestamp >= 30000 AND timestamp < 30500`

// TestFsckNamesStatisticsThatUnderstate: a scan's lookback trusts the
// catalog's span bounds, so fsck holds every record against them; the
// upgrade pass is the repair.
func TestFsckNamesStatisticsThatUnderstate(t *testing.T) {
	dir := t.TempDir()
	id, want := statsStore(t, dir)
	h, err := Open(dir, Options{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	st := h.Stats(id)
	st.HotSpanMs /= 4
	if _, err := h.cat.SetStats(id, st); err != nil {
		t.Fatal(err)
	}
	rep, err := h.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.StaleStats) != 1 || !strings.Contains(rep.StaleStats[0], fmt.Sprintf("ts.irts source=%d ", id)) ||
		len(rep.CorruptBlobs)+len(rep.CorruptTrees)+len(rep.CorruptPages) != 0 {
		t.Fatalf("fsck over understated span bounds:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "statistics do not bound ts.irts source=") || !strings.Contains(rep.String(), "integrity: FAILED") {
		t.Fatalf("the report does not say what is wrong:\n%s", rep)
	}
	if up, err := h.UpgradeBlobs(); err != nil || up.StatsMoved != 1 {
		t.Fatalf("UpgradeBlobs = %+v, %v; want one home's statistics re-derived", up, err)
	}
	if rep, err = h.VerifyIntegrity(); err != nil || !rep.OK() {
		t.Fatalf("fsck after the upgrade: %v\n%s", err, rep)
	}
	if got, _ := diffFetch(t, h, statsQuery); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows after the upgrade:\n got %v\nwant %v", got, want)
	}
}

// TestUnreadableStatsEntryAtOpen: a statistics entry that does not decode
// fails a strict open with a typed corruption error instead of hiding the
// source from every read; recovery mode opens, answers in full, reports the
// entry in fsck, and the upgrade pass re-derives it.
func TestUnreadableStatsEntryAtOpen(t *testing.T) {
	dir := t.TempDir()
	id, want := statsStore(t, dir)
	h, err := Open(dir, Options{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := btree.Open(h.page, "cat.stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(keyenc.AppendInt64(nil, id), []byte{0x80, 0x80}); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{BatchSize: 16})
	var cse *catalog.CorruptStatsError
	if !errors.As(err, &cse) || cse.ID != id || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open: %v, want a corruption error naming statistics entry %d", err, id)
	}

	h, err = Open(dir, Options{BatchSize: 16, Recovery: RecoverLenient})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got, _ := diffFetch(t, h, statsQuery); fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("rows in recovery mode:\n got %v\nwant %v", got, want)
	}
	if rep, err := h.VerifyIntegrity(); err != nil || rep.OK() || len(rep.StaleStats) != 1 {
		t.Fatalf("fsck in recovery mode: %v\n%s", err, rep)
	}
	if _, err := h.UpgradeBlobs(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if h, err = Open(dir, Options{BatchSize: 16}); err != nil {
		t.Fatalf("strict open after the upgrade: %v", err)
	}
	defer h.Close()
	if got, _ := diffFetch(t, h, statsQuery); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows after the upgrade:\n got %v\nwant %v", got, want)
	}
	if rep, err := h.VerifyIntegrity(); err != nil || !rep.OK() {
		t.Fatalf("fsck after the upgrade: %v\n%s", err, rep)
	}
}
