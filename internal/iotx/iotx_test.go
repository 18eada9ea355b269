package iotx

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"odh/internal/model"
)

// tinyScale keeps unit-test experiment runs under a second.
func tinyScale() Scale {
	return Scale{
		TDAccountUnit:    5,
		TDFreqUnitHz:     4,
		TDDuration:       3 * time.Second,
		LDSensorUnit:     40,
		LDMeanIntervalMs: 20_000,
		LDDuration:       3 * time.Minute,
		CaseStudyDivisor: 1000,
		QueriesPerTpl:    3,
		BatchSize:        16,
		Seed:             7,
	}
}

func TestTDGeneratorProperties(t *testing.T) {
	cfg := TDConfig{I: 2, J: 3, AccountUnit: 10, FreqUnitHz: 5, Duration: 5 * time.Second, Seed: 1}
	gen := NewTDGen(cfg)
	if gen.Config().Accounts() != 20 {
		t.Fatalf("accounts = %d", gen.Config().Accounts())
	}
	if len(gen.Customers()) != 4 {
		t.Fatalf("customers = %d (want accounts/5)", len(gen.Customers()))
	}
	accts := gen.Accounts()
	if len(accts) != 20 {
		t.Fatalf("account rows = %d", len(accts))
	}
	for _, a := range accts {
		if a.CCID < 1 || a.CCID > 4 {
			t.Fatalf("account %d references customer %d", a.CAID, a.CCID)
		}
	}
	// Stream: globally time-ordered, within duration, roughly the
	// expected count (jittered intervals average out).
	var n int64
	prev := int64(0)
	perSource := map[int64]int64{}
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		if p.TS < prev {
			t.Fatal("stream not time-ordered")
		}
		prev = p.TS
		if len(p.Values) != 4 {
			t.Fatalf("point arity %d", len(p.Values))
		}
		perSource[p.Source]++
		n++
	}
	exp := int64(float64(cfg.Accounts()) * cfg.FreqHz() * cfg.Duration.Seconds())
	if n < exp/2 || n > exp*2 {
		t.Fatalf("generated %d points, expected ~%d", n, exp)
	}
	if len(perSource) != 20 {
		t.Fatalf("only %d sources produced data", len(perSource))
	}
}

func TestTDGeneratorDeterministic(t *testing.T) {
	cfg := TDConfig{I: 1, J: 1, AccountUnit: 5, FreqUnitHz: 5, Duration: 2 * time.Second, Seed: 42}
	a, b := NewTDGen(cfg), NewTDGen(cfg)
	for {
		pa, oka := a.Next()
		pb, okb := b.Next()
		if oka != okb {
			t.Fatal("streams diverge in length")
		}
		if !oka {
			break
		}
		if pa.Source != pb.Source || pa.TS != pb.TS || pa.Values[0] != pb.Values[0] {
			t.Fatal("streams diverge in content")
		}
	}
}

func TestLDGeneratorSparseness(t *testing.T) {
	cfg := LDConfig{I: 1, SensorUnit: 30, MeanIntervalMs: 10_000, Duration: 2 * time.Minute, Seed: 3}
	gen := NewLDGen(cfg)
	sensors := gen.Sensors()
	if len(sensors) != 30 {
		t.Fatalf("sensors = %d", len(sensors))
	}
	nullCount, total := 0, 0
	var n int64
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		if len(p.Values) != len(LDTagNames) {
			t.Fatalf("arity %d", len(p.Values))
		}
		hasValue := false
		for _, v := range p.Values {
			total++
			if model.IsNull(v) {
				nullCount++
			} else {
				hasValue = true
			}
		}
		if !hasValue {
			t.Fatal("record with no measurements")
		}
		n++
	}
	if n == 0 {
		t.Fatal("no records")
	}
	// The paper's key observation: most tags are NULL.
	if frac := float64(nullCount) / float64(total); frac < 0.4 {
		t.Fatalf("null fraction %.2f, want sparse data", frac)
	}
}

func TestLDGeneratorTagTruncation(t *testing.T) {
	cfg := LDConfig{I: 1, SensorUnit: 5, MeanIntervalMs: 10_000, Duration: time.Minute, TagCount: 3, Seed: 3}
	gen := NewLDGen(cfg)
	p, ok := gen.Next()
	if !ok || len(p.Values) != 3 {
		t.Fatalf("truncated arity = %d", len(p.Values))
	}
	schema := LDSchema(3, 0.5)
	if len(schema.Tags) != 3 {
		t.Fatalf("schema tags = %d", len(schema.Tags))
	}
	if schema.Tags[0].Compression.MaxDev != 0.5 {
		t.Fatal("maxDev not applied")
	}
}

func TestWS1AllCandidatesTD(t *testing.T) {
	scale := tinyScale()
	cfg := scale.TDConfigFor(1, 1)
	for _, build := range []func() (*System, error){
		func() (*System, error) { return NewODH(scale.sysConfig()) },
		func() (*System, error) { return NewRDB(scale.sysConfig()) },
		func() (*System, error) { return NewMySQL(scale.sysConfig()) },
	} {
		sys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWS1TD(sys, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if res.Points == 0 || res.AvgThroughput <= 0 || res.StorageBytes <= 0 {
			t.Fatalf("%s: empty result %+v", sys.Name, res)
		}
		// The operational data must be queryable afterwards.
		q, err := sys.Engine().Query(`SELECT COUNT(*) FROM TRADE`)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		rows, err := q.FetchAll()
		if err != nil {
			t.Fatal(err)
		}
		if rows[0][0].AsInt() != res.Points {
			t.Fatalf("%s: stored %d of %d points", sys.Name, rows[0][0].AsInt(), res.Points)
		}
		sys.Close()
	}
}

func TestWS1LDRoundtrip(t *testing.T) {
	scale := tinyScale()
	cfg := scale.LDConfigFor(1)
	sys, err := NewODH(scale.sysConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := RunWS1LD(sys, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := sys.Engine().Query(`SELECT COUNT(*) FROM Observation`)
	rows, err := q.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].AsInt() != res.Points {
		t.Fatalf("stored %d of %d", rows[0][0].AsInt(), res.Points)
	}
}

func TestWS2TemplatesRunOnAllCandidates(t *testing.T) {
	scale := tinyScale()
	tdCfg := scale.TDConfigFor(1, 1)
	ldCfg := scale.LDConfigFor(1)
	for _, build := range []struct {
		name string
		fn   func() (*System, error)
	}{
		{"ODH", func() (*System, error) { return NewODH(scale.sysConfig()) }},
		{"RDB", func() (*System, error) { return NewRDB(scale.sysConfig()) }},
	} {
		sys, err := build.fn()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWS1TD(sys, tdCfg); err != nil {
			t.Fatal(err)
		}
		ldGen := NewLDGen(ldCfg)
		if err := sys.SetupLD(ldGen, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := RunWS1(sys, "LD(1)", ldGen, ldCfg.StartTS); err != nil {
			t.Fatal(err)
		}
		all := append(append([]string{}, TDTemplateIDs...), LDTemplateIDs...)
		results, err := RunWS2(sys, all, 3, 5)
		if err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
		if len(results) != 8 {
			t.Fatalf("%s: %d template results", build.name, len(results))
		}
		for _, r := range results {
			if r.Queries != 3 {
				t.Fatalf("%s %s: %d queries", build.name, r.Template, r.Queries)
			}
			// TQ1/LQ1 always hit an existing source, so they must return
			// rows on every candidate.
			if (r.Template == "TQ1" || r.Template == "LQ1") && r.Rows == 0 {
				t.Fatalf("%s %s returned no rows", build.name, r.Template)
			}
		}
		sys.Close()
	}
}

func TestWS2ResultsAgreeAcrossCandidates(t *testing.T) {
	// The same template with the same seed must return identical row
	// counts from ODH and RDB: both hold the same dataset.
	scale := tinyScale()
	tdCfg := scale.TDConfigFor(1, 2)
	counts := map[string]int64{}
	for _, build := range []struct {
		name string
		fn   func() (*System, error)
	}{
		{"ODH", func() (*System, error) { return NewODH(scale.sysConfig()) }},
		{"RDB", func() (*System, error) { return NewRDB(scale.sysConfig()) }},
	} {
		sys, err := build.fn()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWS1TD(sys, tdCfg); err != nil {
			t.Fatal(err)
		}
		for _, tpl := range []string{"TQ1", "TQ2", "TQ3", "TQ4"} {
			res, err := RunWS2Template(sys, tpl, 4, 99)
			if err != nil {
				t.Fatalf("%s %s: %v", build.name, tpl, err)
			}
			key := tpl
			if prev, seen := counts[key]; seen {
				if prev != res.Rows {
					t.Fatalf("%s: %s rows %d != %d", build.name, tpl, res.Rows, prev)
				}
			} else {
				counts[key] = res.Rows
			}
		}
		sys.Close()
	}
}

func TestRunTable2(t *testing.T) {
	rows, err := RunTable2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// CPU at rate grows with the point rate across settings 1 -> 3.
	if rows[0].PointsIn == 0 || rows[2].PointsIn <= rows[0].PointsIn {
		t.Fatalf("points not increasing: %+v", rows)
	}
}

func TestRunTable3(t *testing.T) {
	rows, err := RunTable3(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].Vehicles != 2*rows[0].Vehicles || rows[2].Vehicles != 3*rows[0].Vehicles {
		t.Fatalf("fleet scaling wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.AvgInsert <= 0 || r.MBWritten <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
	}
}

func TestRunFigure5Subset(t *testing.T) {
	// Throughput comparisons need enough points to dominate fixed costs
	// and scheduling noise; use a larger scale than the other unit tests.
	scale := tinyScale()
	scale.TDAccountUnit = 20
	scale.TDDuration = 10 * time.Second
	// Each run lasts milliseconds, so one preemption of one system's run
	// (other test binaries share the machine) can swing its rate several
	// fold. Each system keeps its best rate over a few sweeps: noise only
	// ever slows a run down.
	const sweeps = 3
	best := map[string]float64{}
	for range sweeps {
		points, err := RunFigure5(scale, [][2]int{{1, 1}, {2, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 6 { // 2 datasets x 3 systems
			t.Fatalf("%d points", len(points))
		}
		for _, p := range points {
			key := p.Dataset + "/" + p.System
			best[key] = max(best[key], p.Throughput)
		}
	}
	// Headline result: ODH writes at least as fast as both baselines.
	// The real gap is 5x+; a 30% margin absorbs scheduler noise on small
	// CI machines without masking a genuine inversion.
	for _, ds := range []string{"TD(1,1)", "TD(2,1)"} {
		odh, rdb := best[ds+"/ODH"], best[ds+"/RDB"]
		t.Logf("%s: ODH %.0f, RDB %.0f points/s (best of %d)", ds, odh, rdb, sweeps)
		if odh < rdb*0.7 {
			t.Fatalf("%s: ODH %.0f well below RDB %.0f", ds, odh, rdb)
		}
	}
}

func TestRunTable7StorageShape(t *testing.T) {
	rows, err := RunTable7(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d datasets", len(rows))
	}
	for _, r := range rows {
		if r.Bytes["ODH"] >= r.Bytes["RDB"] {
			t.Fatalf("%s: ODH %d >= RDB %d", r.Dataset, r.Bytes["ODH"], r.Bytes["RDB"])
		}
		if r.Bytes["MySQL"] < r.Bytes["RDB"] {
			t.Fatalf("%s: MySQL %d < RDB %d", r.Dataset, r.Bytes["MySQL"], r.Bytes["RDB"])
		}
	}
}

func TestRunCompression(t *testing.T) {
	res, err := RunCompression(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.ODHLossy >= res.RDB {
		t.Fatalf("lossy ODH %d not below RDB %d", res.ODHLossy, res.RDB)
	}
	if res.FactorVsRDB <= 1 {
		t.Fatalf("factor %.2f", res.FactorVsRDB)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "bbbb"}, [][]string{{"xx", "y"}, {"1", "22222"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %q", out)
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatalf("no separator: %q", lines[1])
	}
}

func TestRegularStreamAlignment(t *testing.T) {
	sources := []model.DataSource{{ID: 1}, {ID: 2}, {ID: 3}}
	g := newRegularStream(sources, 1000, 100, 300*time.Millisecond, 2, 1)
	seen := map[int64][]int64{}
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		seen[p.TS] = append(seen[p.TS], p.Source)
	}
	if len(seen) != 3 {
		t.Fatalf("ticks = %d", len(seen))
	}
	for ts, srcs := range seen {
		if len(srcs) != 3 {
			t.Fatalf("tick %d has %d sources (must be aligned)", ts, len(srcs))
		}
	}
}

func TestRunTable8AllCandidates(t *testing.T) {
	results, err := RunTable8(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 { // 8 templates x 3 systems
		t.Fatalf("%d results", len(results))
	}
	bySystem := map[string]int{}
	for _, r := range results {
		bySystem[r.System]++
		if r.Queries == 0 {
			t.Fatalf("%s/%s ran no queries", r.System, r.Template)
		}
	}
	for _, sys := range []string{"ODH", "RDB", "MySQL"} {
		if bySystem[sys] != 8 {
			t.Fatalf("%s has %d template results", sys, bySystem[sys])
		}
	}
}

func TestRunFigure7DenseShape(t *testing.T) {
	points, err := RunFigure7(tinyScale(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, p := range points {
		byKey[fmt.Sprintf("%s-%d", p.System, p.Tags)] = p.Throughput
	}
	// Figure 7's shape: RDB's data throughput grows with record width.
	if byKey["RDB-8"] <= byKey["RDB-1"] {
		t.Fatalf("RDB shape: 1 tag %.0f, 8 tags %.0f", byKey["RDB-1"], byKey["RDB-8"])
	}
	// ODH leads at the narrow end (where the paper says the gap peaks).
	if byKey["ODH-1"] <= byKey["RDB-1"] {
		t.Fatalf("ODH not ahead at 1 tag: %.0f vs %.0f", byKey["ODH-1"], byKey["RDB-1"])
	}
}
