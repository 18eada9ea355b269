package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the driver's spread measure).
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runSets is the repeatability command: the whole benchmark, `sets`
// times over on the same code, `runs` seeds per workload in each set. It
// prints, per end-to-end metric and workload, each set's median, its
// quartile spread, and the gap between the first set's median and each
// later one's, and fails when a gap or a spread exceeds the metric's
// bound. The bounds in BENCHMARK.json were calibrated with it.
func runSets(cfg runConfig, prov provenance, sets, runs int) error {
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, sets)
	var all []*result
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[s][w] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				seed := cfg.seed + int64(s*runs+r)
				res, err := runChild(cfg, w, seed, false)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", s+1, w, seed, err)
				}
				all = append(all, res)
				for _, d := range endToEnd {
					values[s][w][d.Name] = append(values[s][w][d.Name], res.Metrics[d.Name].Value)
				}
			}
		}
	}
	if err := (resultDoc{prov, all}).write(filepath.Join(cfg.out, "result.json")); err != nil {
		return err
	}
	fmt.Printf("\n# repeatability: %d sets of %d runs per workload\n", sets, runs)
	fmt.Printf("%-12s %-24s %14s %8s %14s %8s %8s %6s\n", "workload", "metric", "median[1]", "spread", "median[k]", "spread", "gap", "bound")
	var bad []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			q1, m1, q3 := quartiles(values[0][w][d.Name])
			spread1 := ratio(q3-q1, m1)
			for s := 1; s < sets; s++ {
				p1, mk, p3 := quartiles(values[s][w][d.Name])
				spreadK := ratio(p3-p1, mk)
				// The gap is positive when the later set is worse.
				gap := ratio(mk-m1, m1)
				if d.Better == "higher" {
					gap = -gap
				}
				verdict := ""
				if gap > d.Bound || (d.Name != "setup_s" && max(spread1, spreadK) > d.Bound) {
					verdict = "  EXCEEDS BOUND"
					bad = append(bad, w+"/"+d.Name)
				}
				fmt.Printf("%-12s %-24s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%% %5.0f%%%s\n",
					w, d.Name, m1, 100*spread1, mk, 100*spreadK, 100*gap, 100*d.Bound, verdict)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("not repeatable within its bound: %v", bad)
	}
	return nil
}
