// Command bench is the historian's end-to-end benchmark: an IoT-X load
// generator that drives odh over its TCP protocol and reports what a
// gateway, a dashboard and an operator would see, plus a per-layer
// ladder in traced runs. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"odh"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	root, err := rootDir()
	if err != nil {
		return err
	}
	if err := loadSpec(root); err != nil {
		return err
	}
	var (
		workload = flag.String("workload", "", "run one workload (ingest_td, query_raw, query_agg, mixed_ld); empty runs all four, each in a fresh child")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", float64(spec.RunSeconds), "measured window, seconds")
		trace    = flag.String("trace", "0", "1: traced run (per-layer metrics, ladder, out/trace-<workload>.json)")
		sets     = flag.Int("sets", 0, "repeatability: run the whole benchmark this many times and compare the medians")
		runs     = flag.Int("runs", 3, "with -sets: runs per workload in each set")
		override = flag.String("set", "", "one odh.Options override, Key=Value (stamps the run non-canonical)")
		toy      = flag.Bool("toy", false, "smoke-test scale (not canonical)")
		phase    = flag.String("phase", "", "internal: setup")
		dir      = flag.String("dir", "", "internal: store directory of a set-up child")
	)
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == "1" || *trace == "true",
		sc:       canonicalScale(),
		opts:     baseOptions(nproc),
		nproc:    nproc,
		conns:    min(2, nproc),
		self:     self,
		override: *override,
		toy:      *toy,
		out:      filepath.Join(root, "bench", "out"),
	}
	if *toy {
		cfg.sc = toyScale()
	}
	if *override != "" {
		if err := applyOverride(&cfg.opts, *override); err != nil {
			return err
		}
	}
	if *phase == "setup" {
		return setupStore(cfg.workload, *dir, cfg.opts, cfg.seed, cfg.sc)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	prov := provenanceOf(cfg)
	if *sets > 0 {
		if cfg.override != "" {
			return errors.New("a -set override makes the run non-canonical; -sets refuses it")
		}
		return runSets(cfg, prov, *sets, *runs)
	}
	if cfg.workload != "" {
		res, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		return report(cfg, prov, res)
	}
	// All four, each in a fresh child so heap, caches and VmHWM do not
	// leak from one workload into the next.
	var all []*result
	for _, w := range workloads {
		res, err := runChild(cfg, w, cfg.seed, cfg.trace)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		all = append(all, res)
	}
	return resultDoc{prov, all}.write(filepath.Join(cfg.out, "result.json"))
}

// applyOverride sets one integer or boolean field of odh.Options.
func applyOverride(o *odh.Options, kv string) error {
	key, val, ok := strings.Cut(kv, "=")
	f := reflect.ValueOf(o).Elem().FieldByName(key)
	if !ok || !f.IsValid() || !f.CanSet() {
		return fmt.Errorf("-set %q: want Key=Value with Key an exported odh.Options field", kv)
	}
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("-set %q: %w", kv, err)
		}
		f.SetInt(n)
	case reflect.Bool:
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("-set %q: %w", kv, err)
		}
		f.SetBool(b)
	default:
		return fmt.Errorf("-set %q: only integer and boolean options can be overridden", kv)
	}
	return nil
}

// provenance is stamped on every output.
type provenance struct {
	Commit      string         `json:"commit"`
	Seed        int64          `json:"seed"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Canonical   bool           `json:"canonical"`
	Override    string         `json:"override,omitempty"`
	Connections int            `json:"connections"`
	WindowS     float64        `json:"window_s"`
	WarmupS     float64        `json:"warmup_s"`
	LDOfferedPS float64        `json:"mixed_ld_offered_points_per_s"`
	Options     map[string]any `json:"odh_options"`
	Scale       scale          `json:"scale"`
}

func provenanceOf(cfg runConfig) provenance {
	// Only a checkout that is itself a git repository has a commit to
	// name; git is not left to search the directories above it.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	o := cfg.opts
	return provenance{
		Commit:      commit,
		Seed:        cfg.seed,
		NProc:       cfg.nproc,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Canonical:   cfg.override == "" && !cfg.toy,
		Override:    cfg.override,
		Connections: cfg.conns,
		WindowS:     cfg.window.Seconds(),
		WarmupS:     cfg.window.Seconds() * warmupShare,
		LDOfferedPS: float64(cfg.sc.LDFrame) / cfg.sc.LDFrameEvery.Seconds(),
		Options: map[string]any{
			"BatchSize": o.BatchSize, "PoolPages": o.PoolPages, "EnableRecoveryLog": o.EnableRecoveryLog,
			"WALSyncOnAppend": o.WALSyncOnAppend, "WALSyncEvery": o.WALSyncEvery, "QueryWorkers": o.QueryWorkers,
			"BlobCacheBytes": o.BlobCacheBytes, "SubBucketMs": o.SubBucketMs,
			"server.Options": "defaults", "flush": "WAL syncs on flush only; one FLUSH at the end of the window",
		},
		Scale: cfg.sc,
	}
}

// childArgs are the flags that reproduce cfg in a child for one workload.
func childArgs(cfg runConfig, workload string, seed int64, trace bool) []string {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64), "-trace=" + strconv.FormatBool(trace)}
	if cfg.toy {
		args = append(args, "-toy")
	}
	if cfg.override != "" {
		args = append(args, "-set", cfg.override)
	}
	return args
}

// resultFile is where a single-workload run leaves its full result.
func resultFile(cfg runConfig, workload string) string {
	return filepath.Join(cfg.out, "result-"+workload+".json")
}

// resultDoc is the layout of the result files.
type resultDoc struct {
	Provenance provenance `json:"provenance"`
	Results    []*result  `json:"results"`
}

func (d resultDoc) write(path string) error {
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// runChild runs one workload in a re-exec'd child, passing its table
// through, and reads the full result the child left in its result file.
func runChild(cfg runConfig, workload string, seed int64, trace bool) (*result, error) {
	cmd := exec.Command(cfg.self, childArgs(cfg, workload, seed, trace)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(resultFile(cfg, workload))
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Results) != 1 {
		return nil, fmt.Errorf("%s: %d results, %v", resultFile(cfg, workload), len(doc.Results), err)
	}
	return doc.Results[0], nil
}

// report prints one workload's provenance and every metric by name with
// its unit, writes its result file, and ends with the contract's
// one-line JSON object. The error is non-nil when a request failed its
// oracle, so the process exits non-zero.
func report(cfg runConfig, prov provenance, res *result) error {
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("# provenance %s\n", provJSON)
	fmt.Printf("# workload %s seed %d trace %v: %d attempted, %d failed\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	fmt.Print(res.Metrics.table(endToEnd), res.Metrics.table(perLayer))
	for _, e := range res.Errors {
		fmt.Printf("# failure: %s\n", e)
	}
	if err := (resultDoc{prov, []*result{res}}).write(resultFile(cfg, res.Workload)); err != nil {
		return err
	}
	fmt.Println(string(finalLine(res)))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed their oracle", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// finalLine is the contract's result object: every end-to-end metric of
// an untraced run, every per-layer metric of a traced one. A per-layer
// metric that does not apply to the workload reads 0.
func finalLine(res *result) []byte {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return raw
}
