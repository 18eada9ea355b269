package odh

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"odh/internal/fault"
	"odh/internal/pagestore"
	"odh/internal/walog"
)

// TestTornWriteMidFlushRecovery is the headline crash simulation: power
// dies while the page store is mid-way through writing a freshly spilled
// ValueBlob overflow page. The reopened historian must come up on the
// previous meta epoch, VerifyIntegrity must pinpoint the torn page,
// strict scans must fail with the corruption error, and lenient scans
// must quarantine exactly the one damaged batch.
func TestTornWriteMidFlushRecovery(t *testing.T) {
	const batch = 96 // 96 pts x 2 tags x 8 B uncompressed > maxInlineValue: blobs spill
	ff := fault.Wrap(pagestore.NewMemFile())
	h, err := Open("", Options{BatchSize: batch, DisableCompression: true, Backing: ff})
	if err != nil {
		t.Fatal(err)
	}
	schema := setupEnviron(t, h)
	src, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	w := h.Writer()
	for i := 0; i < 2*batch; i++ {
		if err := w.WritePoint(src.ID, int64(i*10), float64(i), float64(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil { // durable baseline: two spilled batches
		t.Fatal(err)
	}

	// The next flush allocates exactly one new page — the third batch's
	// overflow page — so its id and file offset are known up front.
	tornPage := h.page.NumPages()
	for i := 2 * batch; i < 3*batch; i++ {
		if err := w.WritePoint(src.ID, int64(i*10), float64(i), float64(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	ff.TearWriteAt((int64(tornPage)+1)*pagestore.DiskPageSize, 512)
	if err := h.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("flush over torn write = %v, want injected fault", err)
	}
	ff.ClearTearWriteAt()
	// Crash: the historian is abandoned without Close, pool state lost.

	h2, err := Open("", Options{BatchSize: batch, DisableCompression: true, Backing: ff})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer h2.Close()
	rep, err := h2.VerifyIntegrity()
	if err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	if rep.OK() {
		t.Fatalf("report claims OK over a torn page:\n%s", rep)
	}
	found := false
	for _, id := range rep.CorruptPages {
		if id == tornPage {
			found = true
		}
	}
	if !found {
		t.Fatalf("report does not pinpoint torn page %d:\n%s", tornPage, rep)
	}

	// Strict mode: the scan that touches the torn batch fails loudly.
	res, err := h2.Query(fmt.Sprintf(
		"SELECT timestamp, temperature FROM environ_data_v WHERE id = %d", src.ID))
	if err == nil {
		_, err = res.FetchAll()
	}
	if err == nil {
		t.Fatal("strict scan over torn page reported no error")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict scan error = %v, want ErrCorrupt family", err)
	}

	// Lenient mode: same file, the damaged batch is quarantined and
	// counted; both baseline batches survive untouched.
	h3, err := Open("", Options{BatchSize: batch, DisableCompression: true, Backing: ff, Recovery: RecoverLenient})
	if err != nil {
		t.Fatalf("lenient reopen: %v", err)
	}
	defer h3.Close()
	res, err = h3.Query(fmt.Sprintf(
		"SELECT timestamp, temperature FROM environ_data_v WHERE id = %d", src.ID))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.FetchAll()
	if err != nil {
		t.Fatalf("lenient scan failed: %v", err)
	}
	if len(rows) != 2*batch {
		t.Fatalf("lenient scan yielded %d rows, want %d", len(rows), 2*batch)
	}
	if n := h3.TotalStats().CorruptBlobsSkipped; n != 1 {
		t.Fatalf("CorruptBlobsSkipped = %d, want 1", n)
	}
}

// TestCrashRecoveryProperty drives a randomized write/flush schedule into
// a fault-injected file, kills I/O at a random point (optionally tearing
// the failing write), reopens leniently, and checks the invariants that
// must hold for ANY crash: the reopen path never panics, verification
// runs, and every point a scan returns was actually written — corruption
// may lose data but must never fabricate it.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ff := fault.Wrap(pagestore.NewMemFile())
			h, err := Open("", Options{BatchSize: 8, Backing: ff})
			if err != nil {
				t.Fatal(err)
			}
			schema := setupEnviron(t, h)
			regular, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
			if err != nil {
				t.Fatal(err)
			}
			irregular, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: false, IntervalMs: 10})
			if err != nil {
				t.Fatal(err)
			}
			sources := []*DataSource{regular, irregular}
			written := map[int64]map[int64][]float64{regular.ID: {}, irregular.ID: {}}
			clock := map[int64]int64{}
			w := h.Writer()
			writeSome := func() error {
				src := sources[rng.Intn(len(sources))]
				for i, n := 0, 1+rng.Intn(12); i < n; i++ {
					ts := clock[src.ID]
					clock[src.ID] = ts + 10*int64(1+rng.Intn(3))
					vals := []float64{float64(rng.Intn(1000)), float64(rng.Intn(1000))}
					if err := w.WritePoint(src.ID, ts, vals[0], vals[1]); err != nil {
						return err
					}
					written[src.ID][ts] = vals
				}
				return nil
			}
			// Both spellings of the checkpoint are on the schedule.
			flush := func() error {
				if rng.Intn(2) == 0 {
					return w.Flush()
				}
				return h.Flush()
			}
			// Healthy phase: build up real on-disk state.
			for i, n := 0, 3+rng.Intn(5); i < n; i++ {
				if err := writeSome(); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 {
					if err := flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := h.Flush(); err != nil {
				t.Fatal(err)
			}
			// Arm the crash and keep working until I/O dies (or give up:
			// a countdown the schedule never reaches is a no-crash run).
			ff.SetTornWrite(rng.Intn(pagestore.DiskPageSize))
			ff.FailWritesAfter(rng.Intn(8))
			crashed := false
			for i := 0; i < 30 && !crashed; i++ {
				if err := writeSome(); err != nil {
					crashed = true
					break
				}
				if err := flush(); err != nil {
					crashed = true
				}
			}
			if !crashed {
				t.Skip("schedule never reached the armed fault")
			}
			// Crash: reopen the raw backing file leniently.
			h2, err := Open("", Options{BatchSize: 8, Backing: ff.Inner(), Recovery: RecoverLenient})
			if err != nil {
				// A torn write can land on a tree descriptor or catalog
				// page the open path must read; failing cleanly (no panic,
				// no silent success) is the contract.
				t.Logf("reopen failed cleanly: %v", err)
				return
			}
			defer h2.Close()
			if _, err := h2.VerifyIntegrity(); err != nil {
				t.Fatalf("VerifyIntegrity did not run: %v", err)
			}
			for _, src := range sources {
				it, err := h2.ts.HistoricalScan(src.ID, 0, 1<<60, nil)
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("scan setup error not corruption: %v", err)
					}
					continue
				}
				for {
					p, ok := it.Next()
					if !ok {
						break
					}
					want, present := written[src.ID][p.TS]
					if !present {
						t.Fatalf("source %d: scan fabricated ts=%d", src.ID, p.TS)
					}
					if len(p.Values) != 2 || p.Values[0] != want[0] || p.Values[1] != want[1] {
						t.Fatalf("source %d ts=%d: values %v, want %v", src.ID, p.TS, p.Values, want)
					}
				}
				if err := it.Err(); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("scan error not corruption: %v", err)
				}
			}
		})
	}
}

// TestKillMidGroupCommitRecovery crashes the recovery log in the middle
// of a write while many concurrent writers append, then reopens the
// historian over the same bytes. The WAL must replay a valid
// prefix — every recovered point was genuinely written, per-source order
// intact, nothing fabricated — and the fsck suite must pass.
func TestKillMidGroupCommitRecovery(t *testing.T) {
	pagesFile := fault.Wrap(pagestore.NewMemFile())
	walFile := fault.Wrap(pagestore.NewMemFile())
	h, err := Open("", Options{BatchSize: 64, Backing: pagesFile, WALBacking: walFile})
	if err != nil {
		t.Fatal(err)
	}
	schema := setupEnviron(t, h)
	const nSources = 8
	srcs := make([]*DataSource, nSources)
	for i := range srcs {
		ds, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = ds
	}
	if err := h.Flush(); err != nil { // make the catalog durable
		t.Fatal(err)
	}
	w := h.Writer()

	// Healthy phase: a few committed points per source, still buffered
	// (batch 64 never fills), so recovery must come entirely from the WAL.
	const healthy = 20
	for i := 0; i < healthy; i++ {
		for _, ds := range srcs {
			if err := w.WritePoint(ds.ID, int64(i+1)*10, float64(i), 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Arm the kill: the 3rd log write from here tears 13 bytes
	// in (mid record header), everything after fails. Concurrent writers
	// hammer all sources until the WAL dies under them.
	walFile.FailWritesAfter(2)
	walFile.SetTornWrite(13)
	var wg sync.WaitGroup
	for _, ds := range srcs {
		wg.Add(1)
		go func(ds *DataSource) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ts := int64(healthy+i+1) * 10
				if err := w.WritePoint(ds.ID, ts, float64(healthy+i), 1); err != nil {
					if !errors.Is(err, fault.ErrInjected) {
						t.Errorf("source %d: unexpected error %v", ds.ID, err)
					}
					return
				}
			}
			t.Errorf("source %d: writer outlived the armed WAL fault", ds.ID)
		}(ds)
	}
	wg.Wait()
	// Crash: abandon h without Close (pool and buffers lost).

	h2, err := Open("", Options{BatchSize: 64, Backing: pagesFile.Inner(), WALBacking: walFile.Inner()})
	if err != nil {
		t.Fatalf("reopen after mid-group-commit kill: %v", err)
	}
	defer h2.Close()
	rep, err := h2.VerifyIntegrity()
	if err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("page/tree damage after WAL-only crash:\n%s", rep)
	}
	for _, ds := range srcs {
		it, err := h2.ts.HistoricalScan(ds.ID, 0, 1<<60, nil)
		if err != nil {
			t.Fatal(err)
		}
		var lastTS int64
		n := 0
		for {
			p, ok := it.Next()
			if !ok {
				break
			}
			if p.TS <= lastTS {
				t.Fatalf("source %d: recovered order broken at ts=%d", ds.ID, p.TS)
			}
			// Every recovered point must be one the writers produced:
			// ts = k*10 with matching value k-1.
			if p.TS%10 != 0 || p.Values[0] != float64(p.TS/10-1) {
				t.Fatalf("source %d: fabricated point ts=%d vals=%v", ds.ID, p.TS, p.Values)
			}
			lastTS = p.TS
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if n < healthy {
			t.Fatalf("source %d: recovered %d points, want at least the %d pre-crash ones", ds.ID, n, healthy)
		}
	}
}

// TestCrashRecoveryKeepsRepeatedTimestamps crashes a historian whose
// irregular source logged three samples at one timestamp after its last
// flush, and reopens over the same bytes. Every acked sample must come
// back exactly once: the replay's dedup may skip only what the pages
// already held, never a sample that merely shares a timestamp with one the
// replay itself just applied.
func TestCrashRecoveryKeepsRepeatedTimestamps(t *testing.T) {
	pagesFile := fault.Wrap(pagestore.NewMemFile())
	walFile := fault.Wrap(pagestore.NewMemFile())
	h, err := Open("", Options{BatchSize: 64, Backing: pagesFile, WALBacking: walFile})
	if err != nil {
		t.Fatal(err)
	}
	schema := setupEnviron(t, h)
	src, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: false, IntervalMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	w := h.Writer()
	write := func(tss ...int64) {
		t.Helper()
		for _, ts := range tss {
			if err := w.WritePoint(src.ID, ts, float64(ts), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(10, 20)
	if err := h.Flush(); err != nil { // durable, and the log recycled
		t.Fatal(err)
	}
	logged := []int64{50, 100, 100, 100, 150}
	write(logged...)
	// Crash: abandon h without Close; the five points live only in the log.

	h2, err := Open("", Options{BatchSize: 64, Backing: pagesFile.Inner(), WALBacking: walFile.Inner()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	res, err := h2.Query(fmt.Sprintf("SELECT timestamp FROM environ_data_v WHERE id = %d", src.ID))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range rows {
		got = append(got, r[0].AsInt())
	}
	want := append([]int64{10, 20}, logged...)
	if !slices.Equal(got, want) {
		t.Fatalf("recovered timestamps %v, want %v", got, want)
	}
	if rep, err := h2.VerifyIntegrity(); err != nil || !rep.OK() {
		t.Fatalf("fsck after recovery: %v\n%s", err, rep)
	}
}

// TestCloseReleasesEverythingOnFlushFailure: a Close whose final flush
// fails (here the page file's syncs are armed) used to return at the flush
// error with the recovery log and the page store still open. It must
// report the error and release both anyway — a cluster's KillNode relies
// on it — and a second Close must do nothing.
func TestCloseReleasesEverythingOnFlushFailure(t *testing.T) {
	pageF := fault.Wrap(pagestore.NewMemFile())
	walF := fault.Wrap(pagestore.NewMemFile())
	h, err := Open("", Options{BatchSize: 8, Backing: pageF, WALBacking: walF})
	if err != nil {
		t.Fatal(err)
	}
	schema := setupEnviron(t, h)
	src, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil { // metadata is durable, the points below are not
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := h.Writer().WritePoint(src.ID, int64(i*10), float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	pageF.FailSyncsAfter(0)
	if err := h.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close over failing syncs = %v, want the injected fault", err)
	}
	// A closed log refuses appends.
	if err := h.wal.AppendBatch([][]byte{[]byte("x")}); !errors.Is(err, walog.ErrClosed) {
		t.Fatalf("append after failed Close = %v, want walog.ErrClosed (the log is still open)", err)
	}
	if err := h.page.Flush(); !errors.Is(err, pagestore.ErrClosed) {
		t.Fatalf("page flush after failed Close = %v, want pagestore.ErrClosed (the store is still open)", err)
	}
	io := pageF.Counters()
	if err := h.Close(); err != nil {
		t.Fatalf("second Close = %v, want a no-op", err)
	}
	if got := pageF.Counters(); got != io {
		t.Fatalf("second Close touched the page file (%+v -> %+v)", io, got)
	}
	// Nothing was lost: the log still holds what the pages do not.
	h2, err := Open("", Options{BatchSize: 8, Backing: fault.Wrap(pageF.Inner()), WALBacking: fault.Wrap(walF.Inner())})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	res, err := h2.Query(`SELECT COUNT(*) FROM environ_data_v`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.FetchAll()
	if err != nil || rows[0][0].AsInt() != 20 {
		t.Fatalf("reopened historian holds %v rows (err %v), want 20", rows, err)
	}
}
