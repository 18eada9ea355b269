package tsstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"odh/internal/catalog"
	"odh/internal/fault"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/walog"
)

// TestBufferedPointBytes pins what a source buffer holds: a timestamp array
// of BatchSize and a value slab of BatchSize × tags, allocated at the
// source's first point, and nothing else — no Point per buffered sample and
// no flush scratch kept per source. bufferedBytes counts every slice a
// buffer has, so either would show here.
func TestBufferedPointBytes(t *testing.T) {
	const batch, n = 32, 50
	f := newFixture(t, Config{BatchSize: batch}, 0)
	want := 0
	for _, tags := range []int{1, 3, 7} {
		schema := f.schema(t, fmt.Sprintf("bytes%d", tags), tags)
		for i := range n {
			ds := f.source(t, schema.ID, i%2 == 0, 10)
			if err := f.store.Write(model.Point{Source: ds.ID, TS: 10, Values: make([]float64, tags)}); err != nil {
				t.Fatal(err)
			}
		}
		want += n * batch * (8 + 8*tags)
	}
	if got := f.store.bufferedBytes(); got != want {
		t.Fatalf("%d sources' buffers hold %d bytes, want %d: a timestamp and the values per buffered point", 3*n, got, want)
	}
}

// TestFailedFlushLosesNothing writes an RTS and an IRTS source past
// BatchSize while every page write fails: each flush fails, the buffers
// stay full and outgrow their first arrays. Every point whose write
// returned nil must read back exactly once — through the dirty read while
// the failure lasts, and through a stored read after the failure is
// disarmed, the store flushed, more points written and the store reopened
// over its last checkpoint, replaying the log. A failed write may have
// buffered its point or not, so it reads back at most once, and nothing
// else reads back at all. The store then checks clean.
func TestFailedFlushLosesNothing(t *testing.T) {
	const batch = 8
	mem := pagestore.NewMemFile()
	ff := fault.Wrap(mem)
	logPath := filepath.Join(t.TempDir(), "ingest.wal")
	var l *walog.Log
	open := func(file pagestore.File, pool int) *fixture {
		t.Helper()
		var err error
		if l, err = walog.OpenPath(logPath, walog.Options{}); err != nil {
			t.Fatal(err)
		}
		lg := l
		t.Cleanup(func() { lg.Close() })
		page, err := pagestore.Open(file, pagestore.Options{PoolPages: pool})
		if err != nil {
			t.Fatal(err)
		}
		cat, err := catalog.Open(page, 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(page, cat, Config{BatchSize: batch, Log: l, DisableCompression: true})
		if err != nil {
			t.Fatal(err)
		}
		return &fixture{store: st, cat: cat, page: page}
	}
	// A small pool, and wide uncompressed records that spill to overflow
	// pages, so a flush soon needs a dirty page written back.
	f := open(ff, 16)
	schema := f.schema(t, "failflush", 40)
	srcs := []*model.DataSource{f.source(t, schema.ID, true, 10), f.source(t, schema.ID, false, 10)}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}

	// acked and failed count each point by its first value, unique per
	// source and point.
	acked, failed := map[int64]map[float64]bool{}, map[int64]map[float64]bool{}
	next := map[int64]int64{}
	write := func(ds *model.DataSource) error {
		i := next[ds.ID]
		next[ds.ID]++
		vals := make([]float64, len(schema.Tags))
		for k := range vals {
			vals[k] = float64(i)*1000 + float64(k) + float64(ds.ID)/16
		}
		ts := (i + 1) * 10
		if !ds.Regular {
			ts += i % 3
		}
		err := f.store.Write(model.Point{Source: ds.ID, TS: ts, Values: vals})
		m := acked
		if err != nil {
			m = failed
		}
		if m[ds.ID] == nil {
			m[ds.ID] = map[float64]bool{}
		}
		m[ds.ID][vals[0]] = true
		return err
	}
	check := func(stage string) {
		t.Helper()
		for _, ds := range srcs {
			seen := map[float64]int{}
			for _, p := range scanAll(t, f.store, ds.ID, ScanOptions{}) {
				v := p.Values[0]
				if seen[v]++; !acked[ds.ID][v] && !failed[ds.ID][v] {
					t.Fatalf("%s: source %d reads a point never written: ts=%d %v", stage, ds.ID, p.TS, v)
				}
				if seen[v] > 1 {
					t.Fatalf("%s: source %d reads the point ts=%d %v %d times", stage, ds.ID, p.TS, v, seen[v])
				}
			}
			for v := range acked[ds.ID] {
				if seen[v] != 1 {
					t.Fatalf("%s: source %d reads the acked point %v %d times, want once", stage, ds.ID, v, seen[v])
				}
			}
		}
	}

	ff.FailWritesAfter(0)
	for _, ds := range srcs {
		// Write until a flush fails, then past twice BatchSize more: every
		// write after it fails its flush again and leaves its point buffered.
		for fails := 0; fails <= 2*batch; {
			if err := write(ds); err != nil {
				fails++
			}
			if next[ds.ID] > 2000 {
				t.Fatalf("source %d: 2000 writes and no flush failed", ds.ID)
			}
		}
	}
	t.Logf("writes per source, %d of them failed: %v", 2*batch+1, next)
	if got, first := f.store.bufferedBytes(), 2*batch*(8+8*len(schema.Tags)); got <= first {
		t.Fatalf("the buffers hold %d bytes, their first arrays %d: no buffer outgrew them", got, first)
	}
	check("while page writes fail")

	ff.FailWritesAfter(-1)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
	// Acked points after the checkpoint live in the log alone; abandoning
	// the store is the crash, and the reopen replays them into the buffers.
	for _, ds := range srcs {
		for range batch + 3 {
			if err := write(ds); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.Close()
	f = open(mem, 8192)
	check("replayed, buffered")
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	check("replayed, stored")
	if _, corrupt, stale, err := f.store.VerifyBlobs(); err != nil || len(corrupt) > 0 || len(stale) > 0 {
		t.Fatalf("the store does not check clean: corrupt %v, stale %v, %v", corrupt, stale, err)
	}
}
