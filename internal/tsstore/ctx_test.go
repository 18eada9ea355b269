package tsstore

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestScanCtxCancelSerial verifies a serial scan observes its context
// between blob loads: a cancellation mid-iteration surfaces as the
// iterator's error and stops further decoding.
func TestScanCtxCancelSerial(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "ctxserial", 2)
	ds := f.source(t, s.ID, true, 10)
	fillSource(t, f, ds, 2000)

	ctx, cancel := context.WithCancel(context.Background())
	it, err := f.store.MultiHistoricalScanOpts([]int64{ds.ID}, math.MinInt64, math.MaxInt64, nil, ScanOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatalf("no rows before cancel: %v", it.Err())
	}
	cancel()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", it.Err())
	}
	// The iterator may drain its already-decoded queue (up to one blob's
	// worth of points) but must not decode the rest of the 2000.
	if n > 2*16 {
		t.Fatalf("iterator yielded %d rows after cancel", n)
	}
}

// TestScanCtxCancelParallel verifies a scan asked for workers (which row
// scans ignore) still observes a pre-canceled context: it returns the ctx
// error without decoding.
func TestScanCtxCancelParallel(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "ctxpar", 2)
	ds := f.source(t, s.ID, true, 10)
	fillSource(t, f, ds, 2000)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it, err := f.store.MultiHistoricalScanOpts([]int64{ds.ID}, math.MinInt64, math.MaxInt64, nil, ScanOptions{Workers: 8, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", it.Err())
	}
}

// TestAggregateCtxCancel verifies aggregate parts observe the context:
// a canceled aggregate returns the ctx error on both serial and pooled
// paths.
func TestAggregateCtxCancel(t *testing.T) {
	f := newFixture(t, Config{BatchSize: 16}, 0)
	s := f.schema(t, "ctxagg", 2)
	ds := f.source(t, s.ID, true, 10)
	fillSource(t, f, ds, 2000)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		spec := AggSpec{T1: math.MinInt64, T2: math.MaxInt64, NTags: 2, Opts: ScanOptions{Workers: workers, Ctx: ctx}}
		if _, err := f.store.AggregateHistorical(ds.ID, spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: AggregateHistorical err = %v, want context.Canceled", workers, err)
		}
	}
}
