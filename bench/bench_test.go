package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// asMainEnv makes the test binary act as the bench binary: the set-up
// children re-exec os.Executable(), which under `go test` is this file's
// binary.
const asMainEnv = "ODH_BENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Setenv(asMainEnv, "1")
	if err := loadSpec(".."); err != nil {
		println(err.Error())
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSON holds the committed BENCHMARK.json, which the
// harness loads its declarations from, to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's naming rules", d)
		}
	}
	if len(perLayer) < 1 || len(perLayer) > 128 || len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics are outside the contract's caps", len(perLayer), len(endToEnd))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := declared["setup_s"]; d.Unit != "s" || d.Better != "lower" || d.Bound == 0 {
		t.Errorf("setup_s is declared as %+v, want an end-to-end metric in s, lower is better", d)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 {
		t.Errorf("%d workloads", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v breaks the contract's rules", w)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

// TestSmoke runs all four workloads at toy scale, traced, and checks
// that each prints what BENCHMARK.json declares for it and nothing else.
func TestSmoke(t *testing.T) {
	window := time.Second
	if testing.Short() {
		window = 300 * time.Millisecond
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	nproc := runtime.GOMAXPROCS(0)
	// Names every run of a workload must report (beyond the end-to-end
	// ones, which every workload reports), and counters predicted flat.
	must := map[string][]string{
		"ingest_td": {"ingest_points_per_s", "cpu_us_per_point", "odh.write_ns_per_point", "walog.append_ns_per_point", "btree.put_ns"},
		"query_raw": {"query_rows_per_s", "q.hist.p50_ms", "q.slice.rows", "odh.query_ms.fused1", "tsstore.scan_ns_per_row", "sqlexec.exec_self_us_per_row"},
		"query_agg": {"cpu_ms_per_query", "q.agg_total.p50_ms", "q.agg_group_id.rows", "tsstore.agg_us_per_call", "tsstore.summary_fold_share"},
		"mixed_ld":  {"ingest_late_p99_ms", "query_per_s", "q.agg_recent.p50_ms", "tsstore.write_ns_per_point"},
	}
	flat := map[string][]string{
		"query_raw": {"walog.records", "tsstore.not_decoded_bytes_per_query", "tsstore.summary_fold_share", "tsstore.subbucket_fold_share"},
		"query_agg": {"walog.records"},
	}
	if nproc == 1 {
		// One core means one sending connection: mixed_ld keeps its
		// ingest side and has no dashboard to report on.
		must["mixed_ld"] = []string{"ingest_late_p99_ms", "tsstore.write_ns_per_point"}
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{
				workload: name, seed: 7, window: window, trace: true, toy: true,
				sc: toyScale(), opts: baseOptions(nproc), nproc: nproc, conns: min(2, nproc),
				self: self, out: t.TempDir(),
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d requests failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			for _, n := range must[name] {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s did not report %s", name, n)
				}
			}
			for _, n := range flat[name] {
				if v := res.Metrics[n].Value; v != 0 {
					t.Errorf("%s: %s = %g, predicted 0", name, n, v)
				}
			}
			// Every printed name is declared (metricSet.set panics
			// otherwise) and printed once, with its unit.
			table := res.Metrics.table(endToEnd) + res.Metrics.table(perLayer)
			seen := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
				f := strings.Fields(line)
				if len(f) < 3 || seen[f[0]] || declared[f[0]].Unit != f[2] {
					t.Errorf("table line %q: want a declared name, once, with its unit", line)
				}
				seen[f[0]] = true
			}
			if len(seen) != len(res.Metrics) {
				t.Errorf("table prints %d metrics, the run measured %d", len(seen), len(res.Metrics))
			}
			// The contract's last line carries exactly the declared set.
			for _, traced := range []bool{false, true} {
				res.Trace = traced
				var last struct {
					Metrics map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(finalLine(res), &last); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("trace=%v: last line has %d metrics, BENCHMARK.json declares %d", traced, len(last.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := last.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("trace=%v: last line lacks %s in %s", traced, d.Name, d.Unit)
					}
				}
			}
			if _, err := os.Stat(cfg.out + "/trace-" + name + ".json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// TestOracleRejectsWrongResult: a result that is short, long or
// mis-counted fails its request although the server reported no error.
func TestOracleRejectsWrongResult(t *testing.T) {
	rows := request{tmpl: "hist", sumCol: -1, wantRows: 45}
	agg := request{tmpl: "agg_total", sumCol: 0, wantRows: 1, wantSum: 4000}
	for _, c := range []struct {
		req  request
		rep  reply
		good bool
	}{
		{rows, reply{rows: 45}, true},
		{rows, reply{rows: 44}, false},
		{rows, reply{rows: 46}, false},
		{agg, reply{rows: 1, sum: 4000}, true},
		{agg, reply{rows: 1, sum: 3999}, false},
		{agg, reply{rows: 2, sum: 4000}, false},
	} {
		if err := c.req.check(c.rep); (err == nil) != c.good {
			t.Errorf("%s with %+v: check = %v, want accepted = %v", c.req.tmpl, c.rep, err, c.good)
		}
	}
}

// TestStatsMerge: merging two connections' stats adds every count once.
func TestStatsMerge(t *testing.T) {
	a, b := newConnStats(), newConnStats()
	for i, st := range []*connStats{a, b} {
		st.queries = classStats{done: 10 + i, failed: 1 + i, rows: 100, bytes: 1000}
		st.queries.lat.record(time.Millisecond)
		st.tmpl["hist"] = &classStats{done: 3, failed: 1}
		st.ackedPoints = 500
	}
	a.merge(b)
	if q := a.queries; q.done != 21 || q.failed != 3 || q.rows != 200 || q.bytes != 2000 || q.lat.count() != 2 {
		t.Errorf("merged queries: done %d failed %d rows %d bytes %d latencies %d", q.done, q.failed, q.rows, q.bytes, q.lat.count())
	}
	if h := a.tmpl["hist"]; h.done != 6 || h.failed != 2 {
		t.Errorf("merged template: done %d failed %d", h.done, h.failed)
	}
	if a.ackedPoints != 1000 {
		t.Errorf("merged acked points %d", a.ackedPoints)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 501}, {0.99, 991}} {
		if got := h.quantileMs(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("p%g = %g ms, want %g within 1%%", c.q*100, got, c.want)
		}
	}
	if q := h.tailQuantile(0.99); q != 0.99 {
		t.Errorf("tail of 1000 samples = p%g, want p99", q*100)
	}
	h = histogram{}
	for i := 0; i < 150; i++ {
		h.record(time.Millisecond)
	}
	if q := h.tailQuantile(0.99); q != 0.9 {
		t.Errorf("tail of 150 samples = p%g, want p90", q*100)
	}
}
