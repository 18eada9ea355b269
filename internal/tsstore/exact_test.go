package tsstore

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"odh/internal/model"
)

// feed is the oracle for readers racing one writer: every source's points
// are fixed up front (Values[0] is the point's index in its stream) and
// written in stream order, with per-source counters of writes started and
// acked. A dirty read may return exactly: every point acked before it
// started, once; no point not yet started when it ended; nothing else.
type feed struct {
	streams map[int64][]model.Point
	sufMin  map[int64][]int64 // sufMin[s][i] = min TS of streams[s][i:]
	started map[int64]*atomic.Int64
	acked   map[int64]*atomic.Int64
	maxTS   int64
	// window, when positive, makes the readers scan short windows of this
	// width at starts spread over the streams' range, not [t1, +inf).
	window int64
}

func newFeed(streams map[int64][]model.Point) *feed {
	fd := &feed{streams: streams, sufMin: map[int64][]int64{}, started: map[int64]*atomic.Int64{}, acked: map[int64]*atomic.Int64{}}
	for src, pts := range streams {
		for i := range pts {
			pts[i].Source = src
			pts[i].Values[0] = float64(i)
			fd.maxTS = max(fd.maxTS, pts[i].TS)
		}
		sm := make([]int64, len(pts)+1)
		sm[len(pts)] = math.MaxInt64
		for i := len(pts) - 1; i >= 0; i-- {
			sm[i] = min(sm[i+1], pts[i].TS)
		}
		fd.sufMin[src] = sm
		fd.started[src], fd.acked[src] = new(atomic.Int64), new(atomic.Int64)
	}
	return fd
}

// write ingests point i of src's stream.
func (fd *feed) write(s *Store, src int64, i int) error {
	fd.started[src].Add(1)
	err := s.Write(fd.streams[src][i])
	fd.acked[src].Add(1)
	return err
}

func (fd *feed) snapshot(c map[int64]*atomic.Int64) map[int64]int64 {
	out := make(map[int64]int64, len(c))
	for src, n := range c {
		out[src] = n.Load()
	}
	return out
}

// check asserts got (rows of window [t1, t2), any sources) is a legal
// dirty read given the acked counts before and the started counts after.
// A read of tag 0 alone (projected) may return tag 1 NULL or not at all:
// a stored record's rows are one tag wide, buffered rows keep every value.
func (fd *feed) check(got []model.Point, t1, t2 int64, ackedBefore, startedAfter map[int64]int64, projected bool) error {
	seen := make(map[int64]map[int]bool)
	for _, p := range got {
		stream := fd.streams[p.Source]
		i := int(p.Values[0])
		switch {
		case stream == nil || i < 0 || i >= len(stream) || stream[i].TS != p.TS ||
			tagOf(p.Values, 1) != stream[i].Values[1] && !(projected && model.IsNull(tagOf(p.Values, 1))):
			return fmt.Errorf("invented row %+v", p)
		case p.TS < t1 || p.TS >= t2:
			return fmt.Errorf("row %+v outside [%d,%d)", p, t1, t2)
		case int64(i) >= startedAfter[p.Source]:
			return fmt.Errorf("source %d row %d returned, only %d writes started", p.Source, i, startedAfter[p.Source])
		case seen[p.Source][i]:
			return fmt.Errorf("source %d row %d (ts %d) returned twice", p.Source, i, p.TS)
		}
		if seen[p.Source] == nil {
			seen[p.Source] = make(map[int]bool)
		}
		seen[p.Source][i] = true
	}
	for src, n := range ackedBefore {
		for i, p := range fd.streams[src][:n] {
			if p.TS >= t1 && p.TS < t2 && !seen[src][i] {
				return fmt.Errorf("source %d row %d (ts %d) acked before the read is missing (%d rows returned)", src, i, p.TS, len(seen[src]))
			}
		}
	}
	return nil
}

// bounds is the window of the reader's i-th read: [t1, +inf), or the i-th
// short window at or after t1.
func (fd *feed) bounds(i int, t1 int64) (lo, hi int64) {
	if fd.window <= 0 {
		return t1, math.MaxInt64
	}
	lo = t1 + int64(i)*7919%(fd.maxTS-t1+1)
	return lo, lo + fd.window
}

// readMode is one reader configuration of the exactness table.
type readMode struct {
	name string
	opts ScanOptions
}

var readModes = []readMode{
	{"serial", ScanOptions{}},
	{"serial-nocache", ScanOptions{NoCache: true}},
	{"workers4", ScanOptions{Workers: 4}},
	{"workers4-nocache", ScanOptions{Workers: 4, NoCache: true}},
}

// projectTag0 is what a projected read wants of the 2-tag schemas here:
// tag 0 alone, so it reads each record only through tag 0's column.
var projectTag0 = []int{0}

// readers runs the reader loop — {HistoricalScan, SliceScan, each of all
// tags and of tag 0 alone, AggregateHistorical COUNT/SUM, AggregateSlice
// by id} x readModes — against fd until stop closes, reporting the first
// illegal read.
func (fd *feed) readers(t *testing.T, s *Store, schemaID int64, t1 int64, stop <-chan struct{}, wg *sync.WaitGroup) {
	var srcs []int64
	for src := range fd.streams {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				const kinds = 6
				mode := readModes[(i/kinds)%len(readModes)]
				src := srcs[(i/(kinds*len(readModes)))%len(srcs)]
				lo, hi := fd.bounds(i, t1)
				var err error
				switch i % kinds {
				case 0:
					err = fd.readHistorical(s, src, lo, hi, nil, mode.opts)
				case 1:
					err = fd.readSlice(s, schemaID, lo, hi, nil, mode.opts)
				case 2:
					err = fd.readAggregate(s, src, lo, hi, mode.opts)
				case 3:
					err = fd.readHistorical(s, src, lo, hi, projectTag0, mode.opts)
				case 4:
					err = fd.readSlice(s, schemaID, lo, hi, projectTag0, mode.opts)
				default:
					err = fd.readAggregateSlice(s, schemaID, lo, hi, mode.opts)
				}
				if err != nil {
					t.Errorf("%s: %v", mode.name, err)
					return
				}
			}
		}(r)
	}
}

func (fd *feed) readHistorical(s *Store, src, t1, t2 int64, wantTags []int, opts ScanOptions) error {
	before := map[int64]int64{src: fd.acked[src].Load()}
	it, err := s.HistoricalScanOpts(src, t1, t2, wantTags, opts)
	if err != nil {
		return err
	}
	got, err := drainPoints(it)
	if err != nil {
		return fmt.Errorf("historical %d: %w", src, err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].TS < got[i-1].TS {
			return fmt.Errorf("historical %d: timestamps regressed: %d after %d", src, got[i].TS, got[i-1].TS)
		}
	}
	if err := fd.check(got, t1, t2, before, fd.snapshot(fd.started), wantTags != nil); err != nil {
		return fmt.Errorf("historical of tags %v: %w", wantTags, err)
	}
	return nil
}

func (fd *feed) readSlice(s *Store, schemaID, t1, t2 int64, wantTags []int, opts ScanOptions) error {
	before := fd.snapshot(fd.acked)
	it, err := s.SliceScanOpts(schemaID, t1, t2, wantTags, opts)
	if err != nil {
		return err
	}
	got, err := drainPoints(it)
	if err != nil {
		return fmt.Errorf("slice: %w", err)
	}
	if err := fd.check(got, t1, t2, before, fd.snapshot(fd.started), wantTags != nil); err != nil {
		return fmt.Errorf("slice of tags %v: %w", wantTags, err)
	}
	return nil
}

// readAggregate checks COUNT and SUM exactly: the window ends below every
// timestamp not yet acked, so its rows are fixed before the read starts.
func (fd *feed) readAggregate(s *Store, src, t1, t2 int64, opts ScanOptions) error {
	n := fd.acked[src].Load()
	t2 = min(t2, fd.sufMin[src][n])
	var rows int64
	var sum float64
	for i, p := range fd.streams[src][:n] {
		if p.TS >= t1 && p.TS < t2 {
			rows++
			sum += float64(i)
		}
	}
	res, err := s.AggregateHistorical(src, AggSpec{T1: t1, T2: t2, NTags: 2, Opts: opts})
	if err != nil {
		return fmt.Errorf("aggregate %d: %w", src, err)
	}
	var gotRows int64
	var gotSum float64
	for _, g := range res.Groups {
		gotRows += g.Rows
		gotSum += g.Sum[0]
	}
	if gotRows != rows || gotSum != sum {
		return fmt.Errorf("aggregate %d over [%d,%d): COUNT=%d SUM=%v, want %d and %v", src, t1, t2, gotRows, gotSum, rows, sum)
	}
	return nil
}

// readAggregateSlice checks a slice's COUNT and SUM by id exactly: the
// window ends below every timestamp any source has not acked yet, so its
// rows are fixed before the read starts.
func (fd *feed) readAggregateSlice(s *Store, schemaID, t1, t2 int64, opts ScanOptions) error {
	acked := fd.snapshot(fd.acked)
	for src, n := range acked {
		t2 = min(t2, fd.sufMin[src][n])
	}
	res, err := s.AggregateSlice(schemaID, AggSpec{T1: t1, T2: t2, NTags: 2, WantTags: projectTag0, ByID: true, Opts: opts})
	if err != nil {
		return fmt.Errorf("slice aggregate: %w", err)
	}
	got := map[int64]*AggGroup{}
	for i := range res.Groups {
		got[res.Groups[i].ID] = &res.Groups[i]
	}
	for src, n := range acked {
		var rows int64
		var sum float64
		for i, p := range fd.streams[src][:n] {
			if p.TS >= t1 && p.TS < t2 {
				rows++
				sum += float64(i)
			}
		}
		g := got[src]
		delete(got, src)
		if rows == 0 && g == nil {
			continue
		}
		if g == nil || g.Rows != rows || g.Sum[0] != sum {
			return fmt.Errorf("slice aggregate over [%d,%d): source %d is %+v, want COUNT=%d SUM=%v", t1, t2, src, g, rows, sum)
		}
	}
	for id := range got {
		return fmt.Errorf("slice aggregate over [%d,%d): a group for source %d, which has no rows there", t1, t2, id)
	}
	return nil
}

// regularStream is n points at ts = i*step.
func regularStream(n int, step int64) []model.Point {
	pts := make([]model.Point, n)
	for i := range pts {
		pts[i] = model.Point{TS: int64(i) * step, Values: []float64{0, float64(i % 7)}}
	}
	return pts
}

// jitteredStream is n irregular points with duplicate timestamps and
// out-of-order steps back, which split IRTS batches.
func jitteredStream(n int) []model.Point {
	pts := make([]model.Point, n)
	ts := int64(0)
	for i := range pts {
		switch {
		case i%17 == 16:
			ts -= 40 // out of order
		case i%5 != 4: // every fifth repeats the previous timestamp
			ts += 10 + int64(i%3)
		}
		pts[i] = model.Point{TS: ts, Values: []float64{0, float64(i % 7)}}
	}
	return pts
}

// TestReadersExactUnderMutation is the exactness table for the reader /
// writer rule: every reader, serial and fanned out, cached and not, must
// return a legal dirty read — nothing acked missing, nothing twice,
// nothing invented — while each mutator of the batch trees runs.
func TestReadersExactUnderMutation(t *testing.T) {
	type env struct {
		f      *fixture
		schema int64
		fd     *feed
		order  [][2]int64 // write schedule: (source, stream index)
	}
	// single builds an env with one per-source stream written in order.
	single := func(t *testing.T, regular bool, pts []model.Point) *env {
		f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 256 << 10}, 0)
		s := f.schema(t, "exact", 2)
		ds := f.source(t, s.ID, regular, 10)
		e := &env{f: f, schema: s.ID, fd: newFeed(map[int64][]model.Point{ds.ID: pts})}
		for i := range pts {
			e.order = append(e.order, [2]int64{ds.ID, int64(i)})
		}
		return e
	}
	// group builds an env with a four-member MG group whose schedule hits
	// every MG path: member 0 reports three windows late (its row was
	// flushed partially filled by the open-row cap, so the late point
	// merges into the stored record); member 1 re-reports the same late
	// window at another timestamp (the merge finds both: the stored point
	// overflows to its per-source tree); member 2 reports twice inside an
	// open window (the duplicate goes straight to its per-source tree).
	group := func(t *testing.T) *env {
		f := newFixture(t, Config{BatchSize: 16, maxOpenMGRows: 2, BlobCacheBytes: 256 << 10}, 4)
		s := f.schema(t, "exact", 2)
		var ids []int64
		streams := map[int64][]model.Point{}
		for m := 0; m < 4; m++ {
			ids = append(ids, f.source(t, s.ID, true, 10_000).ID)
		}
		e := &env{f: f, schema: s.ID}
		emit := func(m int, ts int64) {
			id := ids[m]
			e.order = append(e.order, [2]int64{id, int64(len(streams[id]))})
			streams[id] = append(streams[id], model.Point{TS: ts, Values: []float64{0, float64(m)}})
		}
		for w := int64(0); w < 400; w++ {
			for m := 1; m < 4; m++ {
				emit(m, w*10_000+int64(m))
			}
			if w%5 == 2 {
				emit(2, w*10_000+7)
			}
			if w >= 3 {
				emit(0, (w-3)*10_000)
				if w%4 == 0 {
					emit(1, (w-3)*10_000+5)
				}
			}
		}
		e.fd = newFeed(streams)
		return e
	}
	// multi builds an env of six sources of one schema, regular and
	// irregular, their writes interleaved: their small records share the
	// leaves of two trees, so a slice's walkers seek inside one leaf
	// snapshot after another while the mutator rewrites their records.
	multi := func(t *testing.T) *env {
		f := newFixture(t, Config{BatchSize: 16, BlobCacheBytes: 256 << 10}, 0)
		s := f.schema(t, "exact", 2)
		streams := map[int64][]model.Point{}
		var ids []int64
		for k := 0; k < 6; k++ {
			ds := f.source(t, s.ID, k%2 == 0, 10)
			ids = append(ids, ds.ID)
			if k%2 == 0 {
				streams[ds.ID] = regularStream(800, 10)
			} else {
				streams[ds.ID] = jitteredStream(800)
			}
		}
		e := &env{f: f, schema: s.ID, fd: newFeed(streams)}
		for i := 0; i < 800; i++ {
			for _, id := range ids {
				e.order = append(e.order, [2]int64{id, int64(i)})
			}
		}
		return e
	}
	// latest is the newest timestamp acked so far on any source.
	latest := func(e *env) int64 {
		var ts int64
		for src, n := range e.fd.acked {
			if i := n.Load(); i > 0 {
				ts = max(ts, e.fd.streams[src][i-1].TS)
			}
		}
		return ts
	}
	// coldPass compacts everything older than two seconds into cold records
	// eight batches wide, which raises the source's MaxSpanMs — and with it
	// every later scan's lookback — eightfold.
	coldPass := func(e *env, i int) error {
		if i%64 != 0 {
			return nil
		}
		_, err := e.f.store.TierSchema(e.schema, TierPolicy{ColdAfterMs: 2000}, latest(e))
		return err
	}
	// short makes an env's readers scan windows narrower than one record.
	short := func(e *env, window int64) *env {
		e.fd.window = window
		return e
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) *env
		t1     int64                     // readers' window start
		mutate func(e *env, i int) error // runs after every write i
	}{
		{"rts-ingest-flush", func(t *testing.T) *env { return single(t, true, regularStream(3000, 10)) }, 0,
			func(e *env, i int) error {
				if i%37 == 0 {
					return e.f.store.Flush()
				}
				return nil
			}},
		{"irts-ingest-flush", func(t *testing.T) *env { return single(t, false, jitteredStream(3000)) }, 0,
			func(e *env, i int) error {
				if i%37 == 0 {
					return e.f.store.Flush()
				}
				return nil
			}},
		{"mg-merge", group, 0,
			func(e *env, i int) error {
				if i%53 == 0 {
					return e.f.store.Flush()
				}
				return nil
			}},
		{"coalesce", func(t *testing.T) *env { return single(t, false, jitteredStream(3000)) }, 0,
			func(e *env, i int) error {
				if i%64 != 0 {
					return nil
				}
				_, err := e.f.store.Coalesce(e.schema)
				return err
			}},
		{"reorganize", group, 0,
			func(e *env, i int) error {
				if i%64 != 0 {
					return nil
				}
				_, err := e.f.store.Reorganize(e.schema, latest(e)-60_000)
				return err
			}},
		{"tier-cold", func(t *testing.T) *env { return single(t, true, regularStream(3000, 10)) }, 0, coldPass},
		// Six sources: flushes, and cold passes that rewrite each source's
		// records in turn while slices read them all.
		{"multi-source-flush-tier-cold", multi, 0,
			func(e *env, i int) error {
				if i%41 == 0 {
					if err := e.f.store.Flush(); err != nil {
						return err
					}
				}
				return coldPass(e, i)
			}},
		{"multi-source-tier-cold-short-windows", func(t *testing.T) *env { return short(multi(t), 50) }, 0, coldPass},
		// Short windows over the widened lookback: records behind the window
		// are pruned by span, the one across it decodes a row range.
		{"tier-cold-short-windows-rts", func(t *testing.T) *env { return short(single(t, true, regularStream(3000, 10)), 50) }, 0, coldPass},
		{"tier-cold-short-windows-irts", func(t *testing.T) *env { return short(single(t, false, jitteredStream(3000)), 50) }, 0, coldPass},
		// Stubbing and retention are not content-preserving; they run below
		// the readers' window, whose records they still shift around.
		{"tier-stub-drop-below-window", func(t *testing.T) *env { return single(t, true, regularStream(3000, 10)) }, 15_000,
			func(e *env, i int) error {
				if i%64 != 0 {
					return nil
				}
				now := min(latest(e), 14_000)
				if _, err := e.f.store.TierSchema(e.schema, TierPolicy{StubAfterMs: 3000}, now); err != nil {
					return err
				}
				_, err := e.f.store.DropBefore(e.schema, now-8000)
				return err
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.build(t)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			e.fd.readers(t, e.f.store, e.schema, tc.t1, stop, &wg)
			for i, w := range e.order {
				if err := e.fd.write(e.f.store, w[0], int(w[1])); err != nil {
					t.Fatal(err)
				}
				if err := tc.mutate(e, i); err != nil {
					t.Fatal(err)
				}
				if t.Failed() {
					break
				}
			}
			close(stop)
			wg.Wait()
			// Quiesced: every mode returns exactly everything, and exactly
			// each short window when the readers used those.
			windows := [][2]int64{{tc.t1, math.MaxInt64}}
			for i := 0; e.fd.window > 0 && i < 100; i++ {
				lo, hi := e.fd.bounds(i, tc.t1)
				windows = append(windows, [2]int64{lo, hi})
			}
			for src := range e.fd.streams {
				for _, mode := range readModes {
					for _, w := range windows {
						for _, wantTags := range [][]int{nil, projectTag0} {
							if err := e.fd.readHistorical(e.f.store, src, w[0], w[1], wantTags, mode.opts); err != nil {
								t.Errorf("quiesced %s: %v", mode.name, err)
							}
						}
						if err := e.fd.readAggregate(e.f.store, src, w[0], w[1], mode.opts); err != nil {
							t.Errorf("quiesced %s: %v", mode.name, err)
						}
						if err := e.fd.readAggregateSlice(e.f.store, e.schema, w[0], w[1], mode.opts); err != nil {
							t.Errorf("quiesced %s: %v", mode.name, err)
						}
					}
				}
			}
			if _, corrupt, stale, err := e.f.store.VerifyBlobs(); err != nil || len(corrupt) != 0 || len(stale) != 0 {
				t.Fatalf("fsck: corrupt=%v stale=%v err=%v", corrupt, stale, err)
			}
		})
	}
}
