package tsstore

import (
	"math"
	"path/filepath"
	"testing"

	"odh/internal/model"
	"odh/internal/walog"
)

// TestRecoveryDoesNotReappend pins the double-replay fix: recovering from
// a log attached to the recovering store must not append the replayed
// records back into it. Before WriteRecovered, each replay doubled the
// log, so a second crash before the next flush replayed every point
// twice.
func TestRecoveryDoesNotReappend(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ingest.wal")
	l, err := walog.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, Config{BatchSize: 1000, Log: l}, 0)
	s := f.schema(t, "w", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 30; i++ {
		if err := f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	sizeBefore := l.Size()
	l.Close()

	// First crash: the reopened store recovers with the SAME log attached
	// (the production wiring — odh.Open attaches the log it replays).
	l2, err := walog.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	f2 := newFixture(t, Config{BatchSize: 1000, Log: l2}, 0)
	s2 := f2.schema(t, "w", 1)
	f2.source(t, s2.ID, true, 10)
	if n, skipped, err := f2.store.ReplayDedup(l2, f2.store.WriteRecovered); err != nil || n != 30 || skipped != 0 {
		t.Fatalf("recover = %d applied, %d skipped, %v; want 30, 0", n, skipped, err)
	}
	if got := l2.Size(); got != sizeBefore {
		t.Fatalf("log grew during recovery: %d -> %d bytes (records re-appended)", sizeBefore, got)
	}
	l2.Close()

	// Second crash before any flush: replaying again must still yield
	// exactly 30 points, not 60.
	l3, err := walog.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	f3 := newFixture(t, Config{BatchSize: 1000, Log: l3}, 0)
	s3 := f3.schema(t, "w", 1)
	f3.source(t, s3.ID, true, 10)
	if n, skipped, err := f3.store.ReplayDedup(l3, f3.store.WriteRecovered); err != nil || n != 30 || skipped != 0 {
		t.Fatalf("second recover = %d applied, %d skipped, %v; want 30, 0", n, skipped, err)
	}
	it, _ := f3.store.HistoricalScan(ds.ID, 0, math.MaxInt64, nil)
	if got := len(collect(t, it)); got != 30 {
		t.Fatalf("post-second-crash scan = %d points, want 30", got)
	}
}

// TestFlushWithCommitOrdering verifies FlushWith runs the commit callback
// after the WAL sync but before the WAL reset, so a crash during commit
// still replays every drained point.
func TestFlushWithCommitOrdering(t *testing.T) {
	dir := t.TempDir()
	l, err := walog.Open(filepath.Join(dir, "ingest.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f := newFixture(t, Config{BatchSize: 1000, Log: l}, 0)
	s := f.schema(t, "w", 1)
	ds := f.source(t, s.ID, true, 10)
	for i := 0; i < 10; i++ {
		if err := f.store.Write(model.Point{Source: ds.ID, TS: int64(i * 10), Values: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	committed := false
	err = f.store.FlushWith(func() error {
		committed = true
		if l.Size() == 0 {
			t.Error("WAL already recycled when commit ran — crash during commit would lose the drained points")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("commit callback never ran")
	}
	if l.Size() != 0 {
		t.Fatalf("WAL not recycled after successful commit: %d bytes", l.Size())
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
		applied, skipped, err := f2.store.ReplayDedup(l2, f2.store.WriteRecovered)
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
