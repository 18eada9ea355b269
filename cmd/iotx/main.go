// Command iotx runs the IoT-X benchmark (paper §5) and prints each table
// or figure of the paper's evaluation in the same layout.
//
// Usage:
//
//	iotx -exp table2|table3|fig5|fig6|table7|table8|fig7|compress|plans|ablations|all
//	     [-scale 1.0] [-queries 20] [-seed 1] [-quick]
//
// The default scale runs every experiment in seconds on a laptop; -scale
// multiplies dataset sizes toward the paper's full scale. It is the one
// way to regenerate the paper's artifacts (EXPERIMENTS.md records a dated
// run); the system itself is measured by bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"odh/internal/iotx"
)

// order lists the experiments in the paper's order; -exp all runs them all.
var order = []string{"table2", "table3", "fig5", "fig6", "table7", "table8", "fig7", "compress", "plans", "ablations"}

var runners = map[string]func(io.Writer, iotx.Scale, bool) error{
	"table2":    runTable2,
	"table3":    runTable3,
	"fig5":      runFigure5,
	"fig6":      runFigure6,
	"table7":    runTable7,
	"table8":    runTable8,
	"fig7":      runFigure7,
	"compress":  runCompression,
	"plans":     runPlans,
	"ablations": runAblations,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("iotx", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiments, comma-separated: "+strings.Join(order, ", ")+", all")
		scaleF  = fs.Float64("scale", 1.0, "dataset scale multiplier (1.0 = reduced default scale)")
		queries = fs.Int("queries", 0, "queries per template for table8 (0 = default)")
		seed    = fs.Int64("seed", 1, "random seed")
		quick   = fs.Bool("quick", false, "run reduced sweeps (fig5: 5 datasets, fig6: 4)")
		export  = fs.String("export", "", "export a dataset as CSV instead of running experiments: td:i,j or ld:i")
		out     = fs.String("out", "", "output file for -export (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := iotx.DefaultScale()
	scale.Seed = *seed
	if *scaleF != 1.0 {
		scale.TDAccountUnit = max(1, int(float64(scale.TDAccountUnit)**scaleF))
		scale.LDSensorUnit = max(1, int(float64(scale.LDSensorUnit)**scaleF))
	}
	if *queries > 0 {
		scale.QueriesPerTpl = *queries
	}

	if *export != "" {
		return exportDataset(w, scale, *export, *out)
	}

	selected := strings.Split(*exp, ",")
	if *exp == "all" {
		selected = order
	}
	for _, name := range selected {
		runExp, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		start := time.Now()
		if err := runExp(w, scale, *quick); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// exportDataset writes one generated dataset as an IoT-X CSV (the form
// the paper's simulator replays).
func exportDataset(w io.Writer, scale iotx.Scale, spec, outPath string) error {
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	kind, args, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("export spec %q: want td:i,j or ld:i", spec)
	}
	switch strings.ToLower(kind) {
	case "td":
		var i, j int
		if _, err := fmt.Sscanf(args, "%d,%d", &i, &j); err != nil {
			return fmt.Errorf("export spec %q: %v", spec, err)
		}
		n, err := iotx.ExportCSV(w, iotx.NewTDGen(scale.TDConfigFor(i, j)), iotx.TDTagNames)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exported %d TD(%d,%d) records"+"\n", n, i, j)
	case "ld":
		var i int
		if _, err := fmt.Sscanf(args, "%d", &i); err != nil {
			return fmt.Errorf("export spec %q: %v", spec, err)
		}
		n, err := iotx.ExportCSV(w, iotx.NewLDGen(scale.LDConfigFor(i)), iotx.LDTagNames)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exported %d LD(%d) records"+"\n", n, i)
	default:
		return fmt.Errorf("export spec %q: unknown dataset kind", spec)
	}
	return nil
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }
func f0(f float64) string  { return strconv.FormatFloat(f, 'f', 0, 64) }
func mb(b int64) string    { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }

func runTable2(w io.Writer, scale iotx.Scale, _ bool) error {
	fmt.Fprintln(w, "Table 2: Performance Test on WAMS under different PMU Settings")
	fmt.Fprintf(w, "(scaled: fleet sizes / %d; CPU normalized to real-time arrival rate)\n", scale.CaseStudyDivisor)
	rows, err := iotx.RunTable2(scale)
	if err != nil {
		return err
	}
	var cells [][]string
	for i, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(i + 1), r.Setting, strconv.Itoa(r.Cores),
			pct(r.AvgCPU), pct(r.MaxCPU), f0(float64(r.PointsIn)), f0(r.AvgInsert),
		})
	}
	fmt.Fprint(w, iotx.FormatTable(
		[]string{"#", "PMU Setting", "Cores", "Avg CPU", "Max CPU", "Points", "Insert pts/s"}, cells))
	return nil
}

func runTable3(w io.Writer, scale iotx.Scale, _ bool) error {
	fmt.Fprintln(w, "Table 3: ODH test for connected vehicles")
	fmt.Fprintf(w, "(scaled: fleet sizes / %d)\n", scale.CaseStudyDivisor)
	rows, err := iotx.RunTable3(scale)
	if err != nil {
		return err
	}
	var cells [][]string
	for i, r := range rows {
		cells = append(cells, []string{
			strconv.Itoa(i + 1), strconv.Itoa(r.Vehicles), f0(r.AvgInsert),
			f0(r.AvgIOBytesSec), pct(r.AvgCPU), r3(r.MBWritten),
		})
	}
	fmt.Fprint(w, iotx.FormatTable(
		[]string{"#", "Vehicles", "Avg Insert (pts/s)", "Avg IO (B/s)", "Avg CPU", "MB written"}, cells))
	return nil
}

func r3(f float64) string { return strconv.FormatFloat(f, 'f', 3, 64) }

func insertSeries(points []iotx.InsertSeriesPoint) string {
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{
			p.Dataset, p.System, f0(p.Throughput), f0(p.MaxTput), pct(p.CPU), f0(p.Offered), mb(p.Storage),
		})
	}
	return iotx.FormatTable(
		[]string{"Dataset", "System", "Avg tput (pts/s)", "Max tput", "Avg CPU", "Offered (pts/s)", "Storage (MB)"}, cells)
}

func runFigure5(w io.Writer, scale iotx.Scale, quick bool) error {
	fmt.Fprintln(w, "Figure 5: Insert throughput and CPU rate for the TD datasets")
	var pairs [][2]int
	if quick {
		pairs = [][2]int{{1, 1}, {1, 5}, {3, 3}, {5, 1}, {5, 5}}
	}
	points, err := iotx.RunFigure5(scale, pairs)
	if err != nil {
		return err
	}
	fmt.Fprint(w, insertSeries(points))
	return nil
}

func runFigure6(w io.Writer, scale iotx.Scale, quick bool) error {
	fmt.Fprintln(w, "Figure 6: Insert throughput and CPU rate for the LD datasets")
	maxI := 10
	if quick {
		maxI = 4
	}
	points, err := iotx.RunFigure6(scale, maxI)
	if err != nil {
		return err
	}
	fmt.Fprint(w, insertSeries(points))
	return nil
}

func runTable7(w io.Writer, scale iotx.Scale, _ bool) error {
	fmt.Fprintln(w, "Table 7: Storage Cost for Selected Datasets (in MB)")
	rows, err := iotx.RunTable7(scale)
	if err != nil {
		return err
	}
	header := []string{"System"}
	for _, r := range rows {
		header = append(header, r.Dataset)
	}
	var cells [][]string
	for _, sysName := range []string{"ODH", "RDB", "MySQL"} {
		row := []string{sysName}
		for _, r := range rows {
			row = append(row, mb(r.Bytes[sysName]))
		}
		cells = append(cells, row)
	}
	fmt.Fprint(w, iotx.FormatTable(header, cells))
	return nil
}

func runTable8(w io.Writer, scale iotx.Scale, _ bool) error {
	fmt.Fprintln(w, "Table 8: Query performance for the three candidates")
	fmt.Fprintf(w, "(TD(5,2) and LD(5) at reduced scale; %d queries per template)\n", scale.QueriesPerTpl)
	results, err := iotx.RunTable8(scale)
	if err != nil {
		return err
	}
	// Group rows by template across systems, like the paper's layout.
	bySystem := map[string]map[string]iotx.WS2Result{}
	for _, r := range results {
		if bySystem[r.System] == nil {
			bySystem[r.System] = map[string]iotx.WS2Result{}
		}
		bySystem[r.System][r.Template] = r
	}
	var cells [][]string
	for _, tpl := range append(append([]string{}, iotx.TDTemplateIDs...), iotx.LDTemplateIDs...) {
		row := []string{tpl}
		for _, sysName := range []string{"ODH", "RDB", "MySQL"} {
			r := bySystem[sysName][tpl]
			row = append(row, f0(r.DPPerSec), pct(r.AvgCPU))
		}
		cells = append(cells, row)
	}
	fmt.Fprint(w, iotx.FormatTable(
		[]string{"Query", "ODH dp/s", "ODH CPU", "RDB dp/s", "RDB CPU", "MySQL dp/s", "MySQL CPU"}, cells))
	return nil
}

func runFigure7(w io.Writer, scale iotx.Scale, quick bool) error {
	fmt.Fprintln(w, "Figure 7: The number of tags vs data throughput for LD(10)")
	var tags []int
	if quick {
		tags = []int{1, 5, 10, 15}
	}
	points, err := iotx.RunFigure7(scale, tags)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{strconv.Itoa(p.Tags), p.System, f0(p.Throughput)})
	}
	fmt.Fprint(w, iotx.FormatTable([]string{"Tags", "System", "Avg tput (pts/s)"}, cells))
	return nil
}

func runCompression(w io.Writer, scale iotx.Scale, _ bool) error {
	fmt.Fprintln(w, "Compression (§5.3): linear compression on LD(1), max deviation 0.1")
	res, err := iotx.RunCompression(scale)
	if err != nil {
		return err
	}
	fmt.Fprint(w, iotx.FormatTable(
		[]string{"Variant", "Storage (MB)"},
		[][]string{
			{"ODH lossless", mb(res.ODHLossless)},
			{"ODH linear maxDev=0.1", mb(res.ODHLossy)},
			{"RDB", mb(res.RDB)},
			{"factor vs RDB", fmt.Sprintf("%.1fx", res.FactorVsRDB)},
		}))
	return nil
}

func runPlans(w io.Writer, scale iotx.Scale, _ bool) error {
	fmt.Fprintln(w, "Query plan study (§5.3): LQ4 optimizer choices")
	res, err := iotx.RunPlanStudy(scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "-- one-sensor bounding box:")
	fmt.Fprintln(w, res.SmallAreaPlan)
	fmt.Fprintln(w, "-- continent-sized box (la1=10, la2=80, lo1=-150, lo2=-50):")
	fmt.Fprintln(w, res.LargeAreaPlan)
	return nil
}

func runAblations(w io.Writer, scale iotx.Scale, _ bool) error {
	fmt.Fprintln(w, "Ablations: design choices quantified (each arm on a fresh ODH candidate)")
	rows, err := iotx.RunAblations(scale)
	if err != nil {
		return err
	}
	var cells [][]string
	for _, r := range rows {
		bytes := ""
		if r.Bytes > 0 {
			bytes = strconv.FormatInt(r.Bytes, 10)
		}
		cells = append(cells, []string{r.Ablation, r.Arm, f0(r.Value), r.Unit, bytes})
	}
	fmt.Fprint(w, iotx.FormatTable([]string{"Ablation", "Arm", "Value", "Unit", "Bytes"}, cells))
	return nil
}
