package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"odh"
	"odh/internal/metrics"
	"odh/internal/server"
)

// warmupShare is the warm-up as a share of the window (the issue's 3 s
// per 20 s; run_seconds in BENCHMARK.json halves both to fit the
// contract's run-time cap).
const warmupShare = 0.15

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	sc       scale
	opts     odh.Options
	nproc    int
	conns    int    // sending connections: min(2, nproc)
	self     string // path of this binary, for the set-up children
	override string // the -set Key=Value, passed on to the children
	toy      bool
	out      string // directory for trace files and scratch data
}

// baseOptions is the fixed historian configuration every run uses.
func baseOptions(nproc int) odh.Options {
	return odh.Options{
		BatchSize:         128,
		PoolPages:         4096, // 16 MiB
		EnableRecoveryLog: true, // WAL syncs on flush/rotation only
		QueryWorkers:      nproc,
		// The issue fixes 32 MiB against a 5 M-point store; the store is
		// 1 M points here (run-time cap), so the cache shrinks with it to
		// keep decoded data at about five times the cache.
		BlobCacheBytes: 8 << 20,
		SubBucketMs:    60_000,
	}
}

// snapshot is every public counter read at one instant.
type snapshot struct {
	hs  odh.HistorianStats
	ss  server.Stats
	cpu time.Duration
	wal int64 // recovery-log file size
}

func takeSnapshot(h *odh.Historian, srv *server.Server, dir string) snapshot {
	s := snapshot{hs: h.TotalStats(), ss: srv.Stats(), wal: walSize(dir)}
	s.cpu, _ = metrics.ProcessCPUTime()
	return s
}

func walSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, "ingest.wal"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// setupReport is what a set-up child leaves beside the store.
type setupReport struct {
	Points       int64 // points loaded
	BytesWritten int64 // page bytes plus recovery-log bytes written
}

const setupReportFile = "setup.txt"

func (r setupReport) write(dir string) error {
	return os.WriteFile(filepath.Join(dir, setupReportFile), []byte(fmt.Sprintf("%d %d\n", r.Points, r.BytesWritten)), 0o644)
}

func readSetupReport(dir string) (setupReport, error) {
	var r setupReport
	raw, err := os.ReadFile(filepath.Join(dir, setupReportFile))
	if err != nil {
		return r, err
	}
	_, err = fmt.Sscanf(string(raw), "%d %d", &r.Points, &r.BytesWritten)
	return r, err
}

// setupBudget is how long cheap set-ups keep repeating (scale.MaxSetups).
const setupBudget = 1500 * time.Millisecond

// runSetups builds the store at least cfg.sc.Setups times, each in a
// fresh child process and a fresh directory, and keeps the last one. The
// children keep set-up's heap out of the serving process's VmHWM;
// repeating makes setup_s a median.
func runSetups(cfg runConfig) (dir string, medianS float64, n int, err error) {
	var times []float64
	begin := time.Now()
	for i := 0; i < cfg.sc.Setups || (i < cfg.sc.MaxSetups && time.Since(begin) < setupBudget); i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.out, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return "", 0, 0, err
		}
		args := []string{"-phase", "setup", "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10), "-dir", dir}
		if cfg.toy {
			args = append(args, "-toy")
		}
		if cfg.override != "" {
			args = append(args, "-set", cfg.override)
		}
		cmd := exec.Command(cfg.self, args...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return dir, 0, 0, fmt.Errorf("set-up child: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return dir, times[len(times)/2], len(times), nil
}

// result is one workload run, as written to result.json and folded into
// the final JSON line.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	Errors    []string  `json:"errors,omitempty"`
}

// runWorkload is one complete run: set-ups, serve, warm-up, window,
// flush, reopen-and-verify, and in a traced run the layer ladder.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: metricSet{}}
	dir, setupS, setups, err := runSetups(cfg)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}
	setup, err := readSetupReport(dir)
	if err != nil {
		return nil, err
	}

	openStart := time.Now()
	h, err := odh.Open(dir, cfg.opts)
	if err != nil {
		return nil, err
	}
	srv := server.NewWith(h, server.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	setupS += time.Since(openStart).Seconds()

	warmup := time.Duration(float64(cfg.window) * warmupShare)
	t0 := time.Now()
	clk := clock{tb: t0.Add(warmup), trace: cfg.trace, slice: cfg.window / windowSlices}
	clk.tc = clk.tb.Add(cfg.window)
	snaps := make(chan snapshot, 2) // window start and window end
	go func() {
		time.Sleep(time.Until(clk.tb))
		snaps <- takeSnapshot(h, srv, dir)
		time.Sleep(time.Until(clk.tc))
		snaps <- takeSnapshot(h, srv, dir)
	}()
	st, driveErr := drive(cfg, addr.String(), dir, t0, clk)
	before, after := <-snaps, <-snaps
	if driveErr != nil {
		srv.Close()
		h.Close()
		return nil, driveErr
	}

	// One FLUSH at the end of the window, timed on its own.
	flushStart := time.Now()
	fc, err := dial(addr.String())
	if err == nil {
		err = fc.command("FLUSH")
		fc.close()
	}
	flushS := time.Since(flushStart).Seconds()
	final := takeSnapshot(h, srv, dir)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("flush and close: %w", err)
	}
	// Read before the verification below reopens and fscks the whole
	// store in this process: the metric is the serving process's memory.
	peakRSS := peakRSSMB()

	stored := setup.Points + st.ackedPoints
	if err := verifyStore(dir, cfg.opts, stored); err != nil {
		return nil, err
	}

	w := windowNumbers{
		cfg: cfg, st: st, before: before, after: after, final: final,
		setup: setup, setupS: setupS, setups: setups, flushS: flushS, stored: stored, peakRSS: peakRSS,
		seconds: cfg.window.Seconds(),
	}
	w.fill(res)
	if cfg.trace {
		if err := runLadder(cfg, dir, clk.tb, st, res.Metrics); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := writeTrace(cfg, st.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyStore is the post-run oracle: the store reopens from disk, fscks
// clean, and holds exactly the points that were loaded and acknowledged.
func verifyStore(dir string, opts odh.Options, want int64) error {
	h, err := odh.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer h.Close()
	rep, err := h.VerifyIntegrity()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("integrity check failed after the run:\n%s", rep)
	}
	var got int64
	for _, table := range h.VirtualTables() {
		res, err := h.Query("SELECT COUNT(*) FROM " + table)
		if err != nil {
			return err
		}
		rows, err := res.FetchAll()
		if err != nil || len(rows) != 1 {
			return fmt.Errorf("COUNT(*) FROM %s: %d rows, %v", table, len(rows), err)
		}
		got += rows[0][0].AsInt()
	}
	if got != want {
		return fmt.Errorf("store holds %d points after reopen, %d were loaded and acknowledged", got, want)
	}
	return nil
}

// windowNumbers turns one run's raw measurements into named metrics.
type windowNumbers struct {
	cfg                  runConfig
	st                   *connStats
	before, after, final snapshot
	setup                setupReport
	setupS, flushS       float64
	peakRSS              float64
	setups               int
	stored               int64
	seconds              float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (w windowNumbers) fill(res *result) {
	m, st := res.Metrics, w.st
	all := classStats{}
	all.merge(&st.frames)
	all.merge(&st.queries)
	res.Attempted = all.done + all.failed
	res.Failed = all.failed
	res.Correct = all.failed == 0 && all.done > 0
	for _, e := range st.errs {
		res.Errors = append(res.Errors, e.Error())
	}
	note := func(cs *classStats) string { return "n=" + strconv.Itoa(cs.lat.count()) }
	tail := func(cs *classStats) (float64, string) {
		q := cs.lat.tailQuantile(0.99)
		return cs.lat.quantileMs(q), fmt.Sprintf("p%g of n=%d", q*100, cs.lat.count())
	}
	cpu := (w.after.cpu - w.before.cpu).Seconds()
	// Counter movement across the window.
	h0, h1, s0, s1 := w.before.hs, w.after.hs, w.before.ss, w.after.ss
	d := func(before, after int64) float64 { return float64(after - before) }

	// End to end. The request rate and the median latency are those of
	// the workload's closed loop: frames on ingest_td, queries elsewhere
	// (on one core mixed_ld has no dashboard and falls back to its
	// frames). An open loop's rate is its schedule's, not the system's;
	// what it shows is how late acks come, counted from when each frame
	// was due, so on mixed_ld the tail percentile is the open loop's. CPU
	// cannot be told apart by class and is shared over all requests.
	closed, class := &st.queries, "queries"
	if st.queries.done == 0 {
		closed, class = &st.frames, "frames"
	}
	tailOf, tailClass := closed, class
	if st.late.count() > 0 {
		tailOf, tailClass = &st.frames, "open-loop frames, from due time"
	}
	m.set("setup_s", w.setupS, fmt.Sprintf("median of %d", w.setups))
	m.set("req_per_s", float64(closed.done)/w.seconds, class+", "+note(closed))
	m.set("req_p50_ms", closed.lat.quantileMs(0.5), class+", "+note(closed))
	m.set("req_p95_ms", tailOf.lat.quantileMs(0.95), tailClass+", "+note(tailOf))
	m.set("cpu_ms_per_req", ratio(cpu*1e3, float64(all.done)), fmt.Sprintf("all requests, n=%d", all.done))
	m.set("bytes_per_point", ratio(float64(w.final.hs.StorageBytes), float64(w.stored)), fmt.Sprintf("%d points", w.stored))
	written := float64(w.setup.BytesWritten + w.final.hs.IOBytesWritten + w.after.wal)
	m.set("write_bytes_per_point", ratio(written, float64(w.stored)), "")
	m.set("peak_rss_mb", w.peakRSS, "")

	// Per request class.
	m.set("failed_share", ratio(float64(all.failed), float64(res.Attempted)), fmt.Sprintf("%d of %d", all.failed, res.Attempted))
	if st.frames.done > 0 {
		m.set("ingest_points_per_s", float64(st.frames.rows)/w.seconds, "")
		m.set("ingest_ack_p50_ms", st.frames.lat.quantileMs(0.5), note(&st.frames))
		v, n := tail(&st.frames)
		m.set("ingest_ack_p99_ms", v, n)
		m.set("server.points_per_frame", ratio(d(s0.PointsIngested, s1.PointsIngested), d(s0.FramesIngested, s1.FramesIngested)), "")
		m.set("walog.bytes_per_point", ratio(float64(w.after.wal-w.before.wal), float64(st.frames.rows)), "")
		m.set("pagestore.bytes_written_per_point", ratio(float64(w.final.hs.IOBytesWritten-w.before.hs.IOBytesWritten), float64(st.frames.rows)), "")
		m.set("tsstore.flush_s", w.flushS, "")
	}
	if st.late.count() > 0 {
		q := st.late.tailQuantile(0.99)
		m.set("ingest_late_p99_ms", st.late.quantileMs(q), fmt.Sprintf("p%g of n=%d", q*100, st.late.count()))
	}
	if st.queries.done > 0 {
		nq := float64(st.queries.done)
		m.set("query_per_s", nq/w.seconds, "")
		m.set("query_rows_per_s", float64(st.queries.rows)/w.seconds, "")
		m.set("query_p50_ms", st.queries.lat.quantileMs(0.5), note(&st.queries))
		v, n := tail(&st.queries)
		m.set("query_p99_ms", v, n)
		m.set("server.reply_bytes_per_row", ratio(float64(st.queries.bytes), float64(st.queries.rows)), "")
		m.set("pagestore.bytes_read_per_query", d(h0.IOBytesRead, h1.IOBytesRead)/nq, "")
		m.set("tsstore.not_decoded_bytes_per_query", d(h0.BytesNotDecoded+h0.SubBucketBytesNotDecoded, h1.BytesNotDecoded+h1.SubBucketBytesNotDecoded)/nq, "")
	}
	switch w.cfg.workload {
	case "ingest_td":
		m.set("cpu_us_per_point", ratio(cpu*1e6, float64(st.frames.rows)), "")
	case "query_raw", "query_agg":
		m.set("cpu_ms_per_query", ratio(cpu*1e3, float64(st.queries.done)), "")
	}
	for name, cs := range st.tmpl {
		if cs.done == 0 {
			continue
		}
		m.set("q."+name+".p50_ms", cs.lat.quantileMs(0.5), note(cs))
		v, n := tail(cs)
		m.set("q."+name+".p99_ms", v, n)
		m.set("q."+name+".rows", float64(cs.rows)/float64(cs.done), "")
	}

	// Counter deltas across the window.
	m.set("server.shed_share", ratio(d(s0.BatchesShed, s1.BatchesShed), float64(st.frames.done+st.frames.failed)), "")
	m.set("walog.records", d(h0.WALRecords, h1.WALRecords), "")
	m.set("walog.records_per_commit", ratio(d(h0.WALRecords, h1.WALRecords), d(h0.WALGroupCommits, h1.WALGroupCommits)), "")
	m.set("tsstore.blob_bytes_per_point", ratio(float64(w.final.hs.BlobBytes), float64(w.stored)), "")
	hits, misses := d(h0.BlobCacheHits, h1.BlobCacheHits), d(h0.BlobCacheMisses, h1.BlobCacheMisses)
	m.set("tsstore.blobcache_hit_rate", ratio(hits, hits+misses), fmt.Sprintf("%.0f lookups", hits+misses))
	m.set("tsstore.blobcache_evictions", d(h0.BlobCacheEvictions, h1.BlobCacheEvictions), "")
	m.set("tsstore.blobcache_invalidations", d(h0.BlobCacheInvalidations, h1.BlobCacheInvalidations), "")
	m.set("tsstore.parallel_parts_per_scan", ratio(d(h0.ParallelParts, h1.ParallelParts), d(h0.ParallelScans, h1.ParallelScans)), "")
	ph, pm := d(h0.PoolHits, h1.PoolHits), d(h0.PoolMisses, h1.PoolMisses)
	m.set("pagestore.hit_rate", ratio(ph, ph+pm), fmt.Sprintf("%.0f lookups", ph+pm))
	m.set("pagestore.evictions_per_kop", ratio(1000*d(h0.PoolEvictions, h1.PoolEvictions), float64(all.done)), "")
	if w.cfg.trace {
		// Traced and untraced slices alternate and are equally many.
		m.set("trace.overhead_share", 1-ratio(float64(st.tracedDone), float64(st.untracedDone)), fmt.Sprintf("%d traced, %d untraced requests", st.tracedDone, st.untracedDone))
	}
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
