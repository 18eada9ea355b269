package tsstore

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"odh/internal/catalog"
	"odh/internal/fault"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/walog"
)

// crashFixture opens a store over file with the recovery log at logPath
// attached, the way odh.Open wires them; Open replays the log. The page
// store is never closed — abandoning the fixture is the crash, and what a
// reopen over the same file sees is what the last checkpoint committed.
func crashFixture(t *testing.T, file pagestore.File, logPath string) (*fixture, *walog.Log) {
	t.Helper()
	f, l, err := openCrashed(t, file, logPath)
	if err != nil {
		t.Fatal(err)
	}
	return f, l
}

// openCrashed is crashFixture with the failure of the store's Open (its
// replay of the log) returned.
func openCrashed(t *testing.T, file pagestore.File, logPath string) (*fixture, *walog.Log, error) {
	t.Helper()
	l, err := walog.OpenPath(logPath, walog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	page, err := pagestore.Open(file, pagestore.Options{PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Open(page, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(page, cat, Config{BatchSize: 1000, Log: l})
	return &fixture{store: st, cat: cat, page: page}, l, err
}

// scanCount counts the points a full historical scan of source returns.
func scanCount(t *testing.T, s *Store, source int64) int {
	t.Helper()
	it, err := s.HistoricalScan(source, 0, math.MaxInt64, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(collect(t, it))
}

// TestRecoveryDoesNotReappend pins the double-replay fix: Open's replay of
// the log attached to the recovering store must not append the replayed
// records back into it. When it did, each replay doubled the log, so a
// second crash before the next checkpoint replayed every point twice.
func TestRecoveryDoesNotReappend(t *testing.T) {
	file := pagestore.NewMemFile()
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	f, l := crashFixture(t, file, logPath)
	ds := f.source(t, f.schema(t, "w", 1).ID, true, 10)
	if err := f.store.Flush(); err != nil { // the catalog is committed, the log empty
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	sizeBefore := l.Size()
	l.Close()

	// First crash: the reopened store recovers with the SAME log attached.
	f2, l2 := crashFixture(t, file, logPath)
	if got := scanCount(t, f2.store, ds.ID); got != 30 {
		t.Fatalf("recovered %d points, want 30", got)
	}
	if got := l2.Size(); got != sizeBefore {
		t.Fatalf("log grew during recovery: %d -> %d bytes (records re-appended)", sizeBefore, got)
	}
	l2.Close()

	// Second crash before any checkpoint: replaying again must still yield
	// exactly 30 points, not 60.
	f3, _ := crashFixture(t, file, logPath)
	if got := scanCount(t, f3.store, ds.ID); got != 30 {
		t.Fatalf("post-second-crash scan = %d points, want 30", got)
	}
}

// TestRecoveryRefusesUnregisteredSource holds recovery to refusing a log
// that names a source the catalog does not know. The replay's count of
// what the store holds at the point's key reads nothing there, as any scan
// of an unknown id does, and ingest's validation fails the open.
func TestRecoveryRefusesUnregisteredSource(t *testing.T) {
	file := pagestore.NewMemFile()
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	f, l := crashFixture(t, file, logPath)
	ds := f.source(t, f.schema(t, "w", 1).ID, true, 10)
	if err := f.store.Flush(); err != nil { // the catalog is committed, the log empty
		t.Fatal(err)
	}
	// A frame the store would refuse, logged behind its back.
	if err := LogFrame(l, []model.Point{{Source: ds.ID, TS: 10, Values: []float64{1}}, {Source: 4242, TS: 10, Values: []float64{2}}}); err != nil {
		t.Fatal(err)
	}
	l.Sync()
	l.Close()
	if _, _, err := openCrashed(t, file, logPath); err == nil || !strings.Contains(err.Error(), "tsstore: unknown data source 4242") {
		t.Fatalf("recovery over a log naming source 4242: %v, want the unknown-source error", err)
	}
}

// TestFlushCommitOrdering verifies the checkpoint recycles the log only
// after the page commit: a Flush whose commit fails leaves the log intact
// and replayable — a crash right there loses nothing — and a second Flush,
// the device healthy again, commits and recycles.
func TestFlushCommitOrdering(t *testing.T) {
	ff := fault.Wrap(pagestore.NewMemFile())
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	f, l := crashFixture(t, ff, logPath)
	ds := f.source(t, f.schema(t, "w", 1).ID, true, 10)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	logged := l.Size()
	ff.FailSyncsAfter(0)
	if err := f.store.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Flush over a failing page commit = %v, want the injected fault", err)
	}
	if got := l.Size(); got != logged {
		t.Fatalf("log is %d bytes after a failed commit, want the %d logged — a crash now would lose the drained points", got, logged)
	}
	// Crash here: a second store over the same bytes replays all ten.
	crashed, _ := crashFixture(t, ff.Inner(), logPath)
	if got := scanCount(t, crashed.store, ds.ID); got != 10 {
		t.Fatalf("replay after the failed commit recovered %d points, want 10", got)
	}
	// No crash: the device recovers and the retried checkpoint completes.
	ff.FailSyncsAfter(fault.Unlimited)
	if err := f.store.Flush(); err != nil {
		t.Fatalf("second Flush = %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("WAL not recycled after a successful commit: %d bytes", l.Size())
	}
	if got := scanCount(t, f.store, ds.ID); got != 10 {
		t.Fatalf("store holds %d points after the retried checkpoint, want 10", got)
	}
}

// TestRecoveryKeepsRepeatedTimestamps is the regression for crash recovery
// dropping acked rows with a nil error: the dedup used to ask whether a
// point at (source, ts) was visible, and the replay's own first sample at
// ts = 100 made the second and third look already applied. A replay may
// skip exactly the points the store held before it began, buffered or
// persisted, and never one it wrote itself.
func TestRecoveryKeepsRepeatedTimestamps(t *testing.T) {
	// The repeats sit in one frame record or in a record each: the dedup
	// is per point either way.
	t.Run("one call", func(t *testing.T) { testRecoveryKeepsRepeatedTimestamps(t, true) })
	t.Run("a call per point", func(t *testing.T) { testRecoveryKeepsRepeatedTimestamps(t, false) })
}

func testRecoveryKeepsRepeatedTimestamps(t *testing.T, oneCall bool) {
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	l, err := walog.OpenPath(logPath, walog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, Config{BatchSize: 1000, Log: l}, 0)
	ds := f.source(t, f.schema(t, "w", 1).ID, false, 10) // irregular: timestamps may repeat
	logged := []int64{50, 100, 100, 100, 150}
	var frame []model.Point
	for i, ts := range logged {
		frame = append(frame, model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(i)}})
	}
	if !oneCall {
		for _, p := range frame {
			if err := f.store.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	} else if err := f.store.WriteBatch(frame); err != nil {
		t.Fatal(err)
	}
	l.Sync()
	l.Close() // crash: nothing was flushed

	l2, err := walog.OpenPath(logPath, walog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	f2 := newFixture(t, Config{BatchSize: 1000}, 0)
	f2.source(t, f2.schema(t, "w", 1).ID, false, 10)
	// One of the three samples at ts = 100 is already there: one record skips.
	if err := f2.store.Write(model.Point{Source: ds.ID, TS: 100, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	replay := func(when string, wantApplied, wantSkipped int) {
		t.Helper()
		applied, skipped, err := f2.store.Replay(l2)
		if err != nil || applied != wantApplied || skipped != wantSkipped {
			t.Fatalf("%s: %d applied, %d skipped, %v; want %d, %d", when, applied, skipped, err, wantApplied, wantSkipped)
		}
		it, _ := f2.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
		seen := map[float64]bool{}
		for _, p := range collect(t, it) {
			seen[p.Values[0]] = true
		}
		if len(seen) != len(logged) {
			t.Fatalf("%s: store holds samples %v, want the %d distinct ones", when, seen, len(logged))
		}
	}
	replay("one held", 4, 1)
	replay("all held, buffered", 0, 5)
	if err := f2.store.Flush(); err != nil {
		t.Fatal(err)
	}
	replay("all held, persisted", 0, 5)
}

// TestMGRepeatAfterFullRowKept is the regression for two silent row
// losses of four writes to a two-member irregular group. A member that
// repeats a timestamp after its MG row flushed full opens a second row at
// the same key, and when that one flushed, the merge with the stored
// record took an equal timestamp for "the same point" and dropped the
// stored sample — while the same repeat into a still-open row was kept
// (TestMGOverflowKeepsRepeatedSamples). And the reorganizer put each
// member's run at the key of the member's overflow record, replacing it.
// The four writes are four rows before a crash, after the replay of their
// log, after a reorganization — a second one plans nothing — and after a
// reopen.
func TestMGRepeatAfterFullRowKept(t *testing.T) {
	file := pagestore.NewMemFile()
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	f, l := crashFixture(t, file, logPath)
	s := f.schema(t, "meter", 1)
	a := f.source(t, s.ID, false, 900000) // irregular, 15 min -> MG, IRTS history
	b := f.source(t, s.ID, false, 900000)
	if err := f.store.Flush(); err != nil { // the catalog is committed, the log empty
		t.Fatal(err)
	}
	check := func(when string, st *Store) {
		t.Helper()
		var sum float64
		rows := 0
		for _, ds := range []*model.DataSource{a, b} {
			it, err := st.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range collect(t, it) {
				sum += p.Values[0]
				rows++
			}
		}
		if rows != 4 || sum != 15 { // distinct powers of two: the sum names the samples present
			t.Fatalf("%s: %d rows holding sample set %v, want 4 rows, set 15", when, rows, sum)
		}
	}
	for i, src := range []int64{a.ID, b.ID, a.ID, b.ID} { // the second write fills the row, the fourth its successor
		if err := f.store.Write(model.Point{Source: src, TS: 1000, Values: []float64{float64(int(1) << i)}}); err != nil {
			t.Fatal(err)
		}
	}
	check("written", f.store)
	l.Close() // crash: the pages hold the catalog, the log the four writes

	f2, l2 := crashFixture(t, file, logPath)
	check("replayed", f2.store)
	if err := f2.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("replayed and flushed", f2.store)
	if res, err := f2.store.Reorganize(s.ID, 10_000_000); err != nil || res.RowsMoved != 2 {
		t.Fatalf("reorganize = %+v, %v; want 2 rows moved", res, err)
	}
	check("reorganized", f2.store)
	if again, err := f2.store.Reorganize(s.ID, 10_000_000); err != nil || again != (MaintenanceResult{}) {
		t.Fatalf("second reorganize = %+v, %v; want nothing read or written", again, err)
	}
	if err := f2.store.Flush(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	f3, _ := crashFixture(t, file, logPath)
	check("reorganized and reopened", f3.store)
}

// TestRegularResendKeepsItsBatch is the regression for a regular source
// losing a stored batch to a re-sent sample: the run that re-sends the
// batch's first timestamp was put under the batch's key and replaced the
// whole record — a full batch, its first sample again, one sample more, and
// a full scan returned 2 rows while the catalog counted one batch and one
// point too many. Under the collision rule the re-sent sample replaces the
// one at its own timestamp and every other stored row stays: in memory,
// after a crash leaves the writes to the recovery log, and in the
// checkpoint that follows.
func TestRegularResendKeepsItsBatch(t *testing.T) {
	file := pagestore.NewMemFile()
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	f, l := crashFixture(t, file, logPath)
	ds := f.source(t, f.schema(t, "r", 1).ID, true, 10)
	if err := f.store.Flush(); err != nil { // the catalog is committed, the log empty
		t.Fatal(err)
	}
	write := func(ts int64, v float64) {
		t.Helper()
		if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // one full batch, ts 0 to 9990
		write(int64(i*10), float64(i))
	}
	write(0, -1) // its first sample again, with another value
	write(10_000, 1000)
	check := func(when string, st *Store) {
		t.Helper()
		it, err := st.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
		if err != nil {
			t.Fatal(err)
		}
		pts := collect(t, it)
		if len(pts) != 1001 || pts[0].Values[0] != -1 || pts[1].Values[0] != 1 || pts[1000].TS != 10_000 {
			t.Fatalf("%s: a full scan returns %d rows starting %v, want 1001 starting with the re-sent sample", when, len(pts), pts[:min(2, len(pts))])
		}
	}
	check("written", f.store)
	l.Close() // crash: the pages hold the catalog, the log every write

	f2, _ := crashFixture(t, file, logPath)
	check("replayed", f2.store)
	if err := f2.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("replayed and flushed", f2.store)
	if st := f2.cat.Stats(ds.ID); st.PointCount != 1001 || st.BatchCount != 2 {
		t.Fatalf("statistics after the checkpoint: %+v, want 1001 points in 2 batches", st)
	}
}
