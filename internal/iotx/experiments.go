package iotx

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"odh/internal/model"
)

// Scale reduces the paper's full-scale experiments to laptop scale. The
// defaults keep every experiment in seconds; EXPERIMENTS.md records the
// exact scale each published run used. Raising the units toward the
// paper's values (TDAccountUnit 1000, LDSensorUnit 1,000,000, hour-long
// durations) recovers the original workloads.
type Scale struct {
	TDAccountUnit    int           // paper: 1000 accounts per i
	TDFreqUnitHz     float64       // paper: 20 Hz per j
	TDDuration       time.Duration // paper: 1 hour
	LDSensorUnit     int           // paper: 1,000,000 sensors per i
	LDMeanIntervalMs int64         // paper: ~23 min (replayed 60x faster)
	LDDuration       time.Duration // paper: 2 hours
	CaseStudyDivisor int           // divides §4 case-study fleet sizes
	QueriesPerTpl    int           // paper: 100 queries per template
	BatchSize        int           // ODH batch size b
	Seed             int64
}

// DefaultScale returns the reduced scale the iotx CLI runs without flags.
func DefaultScale() Scale {
	return Scale{
		TDAccountUnit:    20,
		TDFreqUnitHz:     4,
		TDDuration:       20 * time.Second,
		LDSensorUnit:     300,
		LDMeanIntervalMs: 23_000,
		LDDuration:       10 * time.Minute,
		CaseStudyDivisor: 100,
		QueriesPerTpl:    20,
		BatchSize:        64,
		Seed:             1,
	}
}

// TDConfigFor returns the scaled TD(i, j) configuration.
func (s Scale) TDConfigFor(i, j int) TDConfig {
	return TDConfig{
		I: i, J: j,
		AccountUnit: s.TDAccountUnit,
		FreqUnitHz:  s.TDFreqUnitHz,
		Duration:    s.TDDuration,
		Seed:        s.Seed,
	}
}

// LDConfigFor returns the scaled LD(i) configuration.
func (s Scale) LDConfigFor(i int) LDConfig {
	return LDConfig{
		I:              i,
		SensorUnit:     s.LDSensorUnit,
		MeanIntervalMs: s.LDMeanIntervalMs,
		Duration:       s.LDDuration,
		Seed:           s.Seed,
	}
}

func (s Scale) sysConfig() SystemConfig {
	return SystemConfig{BatchSize: s.BatchSize}
}

// --- E1: Table 2, WAMS PMU case study ---

// Table2Row mirrors one row of the paper's Table 2.
type Table2Row struct {
	Setting   string
	PMUs      int
	RateHz    int
	Cores     int
	AvgCPU    float64 // at real-time arrival rate
	MaxCPU    float64
	PointsIn  int64
	AvgInsert float64
}

// RunTable2 reproduces the WAMS performance test: regular high-frequency
// PMU fleets ({2000@25Hz, 3000@50Hz, 5000@50Hz} scaled down by
// CaseStudyDivisor) ingesting through the RTS structure; the reported CPU
// load is normalized to the real-time arrival rate.
func RunTable2(scale Scale) ([]Table2Row, error) {
	settings := []struct {
		pmus, hz int
	}{{2000, 25}, {3000, 50}, {5000, 50}}
	var rows []Table2Row
	for _, set := range settings {
		pmus := max(1, set.pmus/scale.CaseStudyDivisor)
		sys, err := NewODH(scale.sysConfig())
		if err != nil {
			return nil, err
		}
		// A PMU streams AC waveform phasors: 6 measurement tags.
		schema := model.SchemaType{
			Name: "pmu",
			Tags: []model.TagDef{
				{Name: "v_mag"}, {Name: "v_angle"}, {Name: "i_mag"},
				{Name: "i_angle"}, {Name: "freq"}, {Name: "rocof"},
			},
		}
		intervalMs := int64(1000 / set.hz)
		sources := make([]model.DataSource, pmus)
		for i := range sources {
			sources[i] = model.DataSource{ID: int64(i + 1), Regular: true, IntervalMs: intervalMs}
		}
		if err := sys.SetupCustom(schema, "pmu_v", sources); err != nil {
			sys.Close()
			return nil, err
		}
		stream := newRegularStream(sources, 1_500_000_000_000, intervalMs, 20*time.Second, 6, scale.Seed)
		res, err := RunWS1(sys, fmt.Sprintf("%d@%dHz", pmus, set.hz), stream, 1_500_000_000_000)
		sys.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Setting:   fmt.Sprintf("%d PMUs @ %d Hz", pmus, set.hz),
			PMUs:      pmus,
			RateHz:    set.hz,
			Cores:     runtime.NumCPU(),
			AvgCPU:    res.AvgCPUAtRate,
			MaxCPU:    res.MaxCPUAtRate,
			PointsIn:  res.Points,
			AvgInsert: res.AvgThroughput,
		})
	}
	return rows, nil
}

// --- E2: Table 3, connected vehicles case study ---

// Table3Row mirrors one row of the paper's Table 3.
type Table3Row struct {
	Vehicles      int
	AvgInsert     float64 // points/s (wall)
	AvgIOBytesSec float64 // at real-time rate
	AvgCPU        float64 // at real-time rate
	MBWritten     float64
}

// RunTable3 reproduces the connected-vehicle test: fleets of {100k, 200k,
// 300k} vehicles (scaled) reporting every 10 seconds, ingesting through
// the MG structure.
func RunTable3(scale Scale) ([]Table3Row, error) {
	var rows []Table3Row
	for _, fleet := range []int{100_000, 200_000, 300_000} {
		vehicles := max(1, fleet/scale.CaseStudyDivisor)
		sys, err := NewODH(scale.sysConfig())
		if err != nil {
			return nil, err
		}
		schema := model.SchemaType{
			Name: "vehicle",
			Tags: []model.TagDef{
				{Name: "speed"}, {Name: "rpm"}, {Name: "fuel"},
				{Name: "lat"}, {Name: "lon"}, {Name: "engine_temp"},
			},
		}
		const intervalMs = 10_000
		sources := make([]model.DataSource, vehicles)
		for i := range sources {
			sources[i] = model.DataSource{ID: int64(i + 1), Regular: true, IntervalMs: intervalMs}
		}
		if err := sys.SetupCustom(schema, "vehicle_v", sources); err != nil {
			sys.Close()
			return nil, err
		}
		stream := newRegularStream(sources, 1_500_000_000_000, intervalMs, 5*time.Minute, 6, scale.Seed)
		res, err := RunWS1(sys, fmt.Sprintf("%d vehicles", vehicles), stream, 1_500_000_000_000)
		sys.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Vehicles:      vehicles,
			AvgInsert:     res.AvgThroughput,
			AvgIOBytesSec: res.IOBytesPerSec,
			AvgCPU:        res.AvgCPUAtRate,
			MBWritten:     float64(res.IOBytesWritten) / (1 << 20),
		})
	}
	return rows, nil
}

// --- E3/E4: Figures 5 and 6, insert throughput + CPU ---

// InsertSeriesPoint is one (dataset, system) measurement of Figures 5/6.
type InsertSeriesPoint struct {
	Dataset    string
	System     string
	Throughput float64
	MaxTput    float64
	CPU        float64
	Offered    float64 // the red dashed line: data-source generation rate
	Storage    int64
}

// candidates builds the three benchmark systems.
func candidates(scale Scale) (map[string]func() (*System, error), []string) {
	return map[string]func() (*System, error){
		"ODH":   func() (*System, error) { return NewODH(scale.sysConfig()) },
		"RDB":   func() (*System, error) { return NewRDB(scale.sysConfig()) },
		"MySQL": func() (*System, error) { return NewMySQL(scale.sysConfig()) },
	}, []string{"ODH", "RDB", "MySQL"}
}

// RunFigure5 sweeps the TD(i, j) grid for the three candidates. pairs
// selects (i, j) combinations; nil runs the full 25-point grid.
func RunFigure5(scale Scale, pairs [][2]int) ([]InsertSeriesPoint, error) {
	if pairs == nil {
		for i := 1; i <= 5; i++ {
			for j := 1; j <= 5; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	builders, order := candidates(scale)
	var out []InsertSeriesPoint
	for _, p := range pairs {
		cfg := scale.TDConfigFor(p[0], p[1])
		offered := float64(cfg.Accounts()) * cfg.FreqHz()
		for _, name := range order {
			sys, err := builders[name]()
			if err != nil {
				return nil, err
			}
			res, err := RunWS1TD(sys, cfg)
			sys.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, InsertSeriesPoint{
				Dataset: cfg.Label(), System: name,
				Throughput: res.AvgThroughput, MaxTput: res.MaxThroughput,
				CPU: res.AvgCPU, Offered: offered, Storage: res.StorageBytes,
			})
		}
	}
	return out, nil
}

// RunFigure6 sweeps LD(1..maxI) for the three candidates.
func RunFigure6(scale Scale, maxI int) ([]InsertSeriesPoint, error) {
	if maxI <= 0 {
		maxI = 10
	}
	builders, order := candidates(scale)
	var out []InsertSeriesPoint
	for i := 1; i <= maxI; i++ {
		cfg := scale.LDConfigFor(i)
		offered := float64(cfg.Sensors()) * 1000 / float64(cfg.MeanIntervalMs)
		for _, name := range order {
			sys, err := builders[name]()
			if err != nil {
				return nil, err
			}
			res, err := RunWS1LD(sys, cfg, 0)
			sys.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, InsertSeriesPoint{
				Dataset: cfg.Label(), System: name,
				Throughput: res.AvgThroughput, MaxTput: res.MaxThroughput,
				CPU: res.AvgCPU, Offered: offered, Storage: res.StorageBytes,
			})
		}
	}
	return out, nil
}

// --- E5: Table 7, storage cost ---

// StorageRow is one dataset column of the paper's Table 7.
type StorageRow struct {
	Dataset string
	Bytes   map[string]int64 // system -> bytes
}

// RunTable7 measures on-disk size for the paper's selected datasets:
// TD(1,1), TD(1,2), TD(1,4), TD(2,1), LD(1), LD(2).
func RunTable7(scale Scale) ([]StorageRow, error) {
	builders, order := candidates(scale)
	var rows []StorageRow
	run := func(label string, load func(sys *System) (WS1Result, error)) error {
		row := StorageRow{Dataset: label, Bytes: map[string]int64{}}
		for _, name := range order {
			sys, err := builders[name]()
			if err != nil {
				return err
			}
			res, err := load(sys)
			sys.Close()
			if err != nil {
				return err
			}
			row.Bytes[name] = res.StorageBytes
		}
		rows = append(rows, row)
		return nil
	}
	for _, p := range [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 1}} {
		cfg := scale.TDConfigFor(p[0], p[1])
		if err := run(cfg.Label(), func(sys *System) (WS1Result, error) {
			return RunWS1TD(sys, cfg)
		}); err != nil {
			return nil, err
		}
	}
	for _, i := range []int{1, 2} {
		cfg := scale.LDConfigFor(i)
		if err := run(cfg.Label(), func(sys *System) (WS1Result, error) {
			return RunWS1LD(sys, cfg, 0)
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// --- E6: Table 8, query performance ---

// RunTable8 loads TD(5,2) and LD(5) (scaled) into each candidate, then
// runs the eight query templates. Results are ordered TQ1..TQ4, LQ1..LQ4
// per system, as the paper's Table 8 lays them out.
func RunTable8(scale Scale) ([]WS2Result, error) {
	builders, order := candidates(scale)
	tdCfg := scale.TDConfigFor(5, 2)
	ldCfg := scale.LDConfigFor(5)
	var out []WS2Result
	for _, name := range order {
		sys, err := builders[name]()
		if err != nil {
			return nil, err
		}
		if _, err := RunWS1TD(sys, tdCfg); err != nil {
			sys.Close()
			return nil, err
		}
		ldGen := NewLDGen(ldCfg)
		if err := sys.SetupLD(ldGen, 0); err != nil {
			sys.Close()
			return nil, err
		}
		if _, err := RunWS1(sys, ldCfg.Label(), ldGen, ldCfg.StartTS); err != nil {
			sys.Close()
			return nil, err
		}
		results, err := RunWS2(sys, append(append([]string{}, TDTemplateIDs...), LDTemplateIDs...), scale.QueriesPerTpl, scale.Seed)
		sys.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, results...)
	}
	return out, nil
}

// --- E7: Figure 7, tag count vs write throughput ---

// TagWidthPoint is one (tags, system) measurement of Figure 7.
type TagWidthPoint struct {
	Tags   int
	System string
	// Throughput is data values (tag values) per second, the paper's
	// "data throughput" for Figure 7.
	Throughput float64
}

// RunFigure7 varies the LD(10) observation width from 1 to 15 tags and
// measures write throughput for ODH and RDB.
func RunFigure7(scale Scale, tagCounts []int) ([]TagWidthPoint, error) {
	if tagCounts == nil {
		for n := 1; n <= 15; n++ {
			tagCounts = append(tagCounts, n)
		}
	}
	builders, _ := candidates(scale)
	var out []TagWidthPoint
	for _, tags := range tagCounts {
		cfg := scale.LDConfigFor(10)
		cfg.TagCount = tags
		cfg.Dense = true
		for _, name := range []string{"ODH", "RDB"} {
			sys, err := builders[name]()
			if err != nil {
				return nil, err
			}
			res, err := RunWS1LD(sys, cfg, 0)
			sys.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, TagWidthPoint{Tags: tags, System: name, Throughput: res.ValuesPerSec})
		}
	}
	return out, nil
}

// --- E8: §5.3 compression note ---

// CompressionResult reports the lossy-compression storage experiment.
type CompressionResult struct {
	ODHLossless int64
	ODHLossy    int64
	RDB         int64
	FactorVsRDB float64 // RDB bytes / ODH lossy bytes
}

// RunCompression reproduces the paper's note: linear compression on LD(1)
// with a 0.1 maximum deviation versus the relational baseline.
func RunCompression(scale Scale) (CompressionResult, error) {
	cfg := scale.LDConfigFor(1)
	storage := func(build func(SystemConfig) (*System, error), maxDev float64) (int64, error) {
		sys, err := build(scale.sysConfig())
		if err != nil {
			return 0, err
		}
		res, err := RunWS1LD(sys, cfg, maxDev)
		sys.Close()
		return res.StorageBytes, err
	}
	var out CompressionResult
	var err error
	if out.ODHLossless, err = storage(NewODH, 0); err != nil {
		return out, err
	}
	if out.ODHLossy, err = storage(NewODH, 0.1); err != nil {
		return out, err
	}
	if out.RDB, err = storage(NewRDB, 0); err != nil {
		return out, err
	}
	if out.ODHLossy > 0 {
		out.FactorVsRDB = float64(out.RDB) / float64(out.ODHLossy)
	}
	return out, nil
}

// --- E10: §5.3 optimizer plan study ---

// PlanStudyResult captures the optimizer's choices for the two LQ4
// parameterizations the paper discusses.
type PlanStudyResult struct {
	SmallAreaPlan string
	LargeAreaPlan string
}

// RunPlanStudy loads LD(1) into ODH and asks the optimizer to plan a
// one-sensor bounding box and a country-sized box.
func RunPlanStudy(scale Scale) (PlanStudyResult, error) {
	out := PlanStudyResult{}
	cfg := scale.LDConfigFor(1)
	sys, err := NewODH(scale.sysConfig())
	if err != nil {
		return out, err
	}
	defer sys.Close()
	gen := NewLDGen(cfg)
	if err := sys.SetupLD(gen, 0); err != nil {
		return out, err
	}
	if _, err := RunWS1(sys, cfg.Label(), gen, cfg.StartTS); err != nil {
		return out, err
	}
	// A box around exactly one sensor.
	sensors := gen.Sensors()
	s0 := sensors[0]
	small := fmt.Sprintf(
		`SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND Latitude > %f AND Latitude < %f AND Longitude > %f AND Longitude < %f`,
		s0.Lat-0.0005, s0.Lat+0.0005, s0.Lon-0.0005, s0.Lon+0.0005)
	planSmall, err := sys.Engine().Plan(small)
	if err != nil {
		return out, err
	}
	out.SmallAreaPlan = planSmall
	// The paper's large box: (la1=10, la2=80, lo1=-150, lo2=-50).
	large := `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND Latitude > 10 AND Latitude < 80 AND Longitude > -150 AND Longitude < -50`
	planLarge, err := sys.Engine().Plan(large)
	if err != nil {
		return out, err
	}
	out.LargeAreaPlan = planLarge
	return out, nil
}

// rngFor derives a deterministic RNG.
func rngFor(seed int64, salt string) *rand.Rand {
	h := int64(0)
	for _, c := range salt {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// --- regular stream generator for the case studies ---

// regularStream emits aligned regular samples for a fleet: every
// intervalMs, every source produces one record (PMUs, meters, vehicles).
type regularStream struct {
	ids        []int64
	startTS    int64
	intervalMs int64
	endTS      int64
	ntags      int
	rng        *rand.Rand
	tick       int64
	idx        int
	walk       []float64
}

func newRegularStream(sources []model.DataSource, startTS, intervalMs int64, dur time.Duration, ntags int, seed int64) *regularStream {
	ids := make([]int64, len(sources))
	for i, ds := range sources {
		ids[i] = ds.ID
	}
	return &regularStream{
		ids:        ids,
		startTS:    startTS,
		intervalMs: intervalMs,
		endTS:      startTS + dur.Milliseconds(),
		ntags:      ntags,
		rng:        rngFor(seed, "regular"),
		walk:       make([]float64, len(sources)),
	}
}

func (g *regularStream) Next() (model.Point, bool) {
	ts := g.startTS + g.tick*g.intervalMs
	if ts >= g.endTS {
		return model.Point{}, false
	}
	src := g.ids[g.idx]
	g.walk[g.idx] += g.rng.NormFloat64() * 0.1
	vals := make([]float64, g.ntags)
	for t := range vals {
		vals[t] = 50 + g.walk[g.idx] + float64(t)
	}
	g.idx++
	if g.idx >= len(g.ids) {
		g.idx = 0
		g.tick++
	}
	return model.Point{Source: src, TS: ts, Values: vals}, true
}

// FormatTable renders rows of label/value pairs in aligned columns for
// the CLI and EXPERIMENTS.md capture.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
