package tsstore

import (
	"errors"
	"math"
	"path/filepath"
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
	l, err := walog.Open(logPath)
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
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: st, cat: cat, page: page}, l
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
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	l, err := walog.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, Config{BatchSize: 1000, Log: l}, 0)
	ds := f.source(t, f.schema(t, "w", 1).ID, false, 10) // irregular: timestamps may repeat
	logged := []int64{50, 100, 100, 100, 150}
	for i, ts := range logged {
		if err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	l.Close() // crash: nothing was flushed

	l2, err := walog.Open(logPath)
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
