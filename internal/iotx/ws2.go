package iotx

import (
	"fmt"
	"math/rand"
	"time"

	"odh/internal/metrics"
)

// WS2Result is one read-workload measurement: per query template, the
// data-point throughput and CPU the paper's Table 8 reports.
type WS2Result struct {
	Template string
	System   string
	Queries  int
	// Rows and DataPoints count returned tuples and non-NULL values.
	Rows       int64
	DataPoints int64
	// DPPerSec is data points returned per second of query time.
	DPPerSec float64
	// AvgCPU is the CPU load fraction during the workload.
	AvgCPU float64
	// AvgLatency is mean per-query latency.
	AvgLatency time.Duration
	// BlobBytes is the ValueBlob I/O the ODH cost model predicts and the
	// executor accounts (0 for relational candidates).
	BlobBytes int64
}

// templateGen produces one concrete query from a template given the
// parameter pools.
type templateGen func(rng *rand.Rand, p *QueryParams) string

// Templates maps template ids to generators. The SQL text matches the
// paper's Tables 5 and 6; identical text runs against ODH's virtual
// tables and the relational candidates' plain tables.
var Templates = map[string]templateGen{
	// TQ1: historical query for one account.
	"TQ1": func(rng *rand.Rand, p *QueryParams) string {
		id := 1 + rng.Intn(p.Accounts)
		return fmt.Sprintf(`SELECT * FROM TRADE WHERE T_CA_ID = %d`, id)
	},
	// TQ2: slice query over a 1-10 s window.
	"TQ2": func(rng *rand.Rand, p *QueryParams) string {
		span := int64(1000 + rng.Intn(9000))
		t := p.TDStartTS + rng.Int63n(max(p.TDEndTS-p.TDStartTS-span, 1))
		return fmt.Sprintf(`SELECT * FROM TRADE WHERE T_DTS BETWEEN %d AND %d`, t, t+span)
	},
	// TQ3: fuse with ACCOUNT, single data source involved.
	"TQ3": func(rng *rand.Rand, p *QueryParams) string {
		id := 1 + rng.Intn(p.Accounts)
		return fmt.Sprintf(
			`SELECT T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_%06d'`, id)
	},
	// TQ4: fuse with ACCOUNT and CUSTOMER, multiple data sources.
	"TQ4": func(rng *rand.Rand, p *QueryParams) string {
		span := (p.DOBHi - p.DOBLo) / 10
		lo := p.DOBLo + rng.Int63n(max(p.DOBHi-p.DOBLo-span, 1))
		return fmt.Sprintf(
			`SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a, CUSTOMER c WHERE a.CA_ID = t.T_CA_ID AND a.CA_C_ID = c.C_ID AND C_DOB BETWEEN %d AND %d`,
			lo, lo+span)
	},
	// LQ1: historical query for one sensor.
	"LQ1": func(rng *rand.Rand, p *QueryParams) string {
		id := p.SensorIDs[rng.Intn(len(p.SensorIDs))]
		return fmt.Sprintf(`SELECT * FROM Observation WHERE SensorId = %d`, id)
	},
	// LQ2: slice query with a single projected tag.
	"LQ2": func(rng *rand.Rand, p *QueryParams) string {
		span := int64(1000 + rng.Intn(9000))
		// Low-frequency data: widen the window to the mean interval scale
		// so slices are non-empty, as the paper's parameters do.
		span *= 60
		t := p.LDStartTS + rng.Int63n(max(p.LDEndTS-p.LDStartTS-span, 1))
		return fmt.Sprintf(
			`SELECT Timestamp, SensorId, AirTemperature FROM Observation WHERE Timestamp BETWEEN %d AND %d`, t, t+span)
	},
	// LQ3: fuse with LinkedSensor by name, single data source.
	"LQ3": func(rng *rand.Rand, p *QueryParams) string {
		n := 1 + rng.Intn(len(p.SensorIDs))
		return fmt.Sprintf(
			`SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND SensorName = 'A%05d'`, n)
	},
	// LQ4: fuse with LinkedSensor by geographic box, multiple sources.
	"LQ4": func(rng *rand.Rand, p *QueryParams) string {
		latSpan := (p.LatHi - p.LatLo) * (0.05 + rng.Float64()*0.3)
		lonSpan := (p.LonHi - p.LonLo) * (0.05 + rng.Float64()*0.3)
		la1 := p.LatLo + rng.Float64()*(p.LatHi-p.LatLo-latSpan)
		lo1 := p.LonLo + rng.Float64()*(p.LonHi-p.LonLo-lonSpan)
		return fmt.Sprintf(
			`SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND Latitude > %f AND Latitude < %f AND Longitude > %f AND Longitude < %f`,
			la1, la1+latSpan, lo1, lo1+lonSpan)
	},
}

// TDTemplateIDs and LDTemplateIDs order the templates as the paper lists
// them.
var (
	TDTemplateIDs = []string{"TQ1", "TQ2", "TQ3", "TQ4"}
	LDTemplateIDs = []string{"LQ1", "LQ2", "LQ3", "LQ4"}
)

// RunWS2Template runs n concrete queries from one template against a
// candidate and reports throughput and CPU.
func RunWS2Template(sys *System, template string, n int, seed int64) (WS2Result, error) {
	gen, ok := Templates[template]
	if !ok {
		return WS2Result{}, fmt.Errorf("iotx: unknown template %q", template)
	}
	res := WS2Result{Template: template, System: sys.Name, Queries: n}
	rng := rand.New(rand.NewSource(seed))
	cpu := metrics.NewCPUMeter()
	start := time.Now()
	for i := 0; i < n; i++ {
		sql := gen(rng, &sys.Params)
		q, err := sys.engine.Query(sql)
		if err != nil {
			return res, fmt.Errorf("%s %s: %q: %w", sys.Name, template, sql, err)
		}
		if _, err := q.FetchAll(); err != nil {
			return res, fmt.Errorf("%s %s: %q: %w", sys.Name, template, sql, err)
		}
		res.Rows += q.RowCount
		res.DataPoints += q.DataPoints
		res.BlobBytes += q.BlobBytes()
		cpu.Sample()
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		res.DPPerSec = float64(res.DataPoints) / elapsed.Seconds()
	}
	res.AvgCPU = cpu.AvgLoad()
	res.AvgLatency = elapsed / time.Duration(n)
	return res, nil
}

// RunWS2 runs a list of templates and returns their results in order.
func RunWS2(sys *System, templates []string, queriesPerTemplate int, seed int64) ([]WS2Result, error) {
	var out []WS2Result
	for i, tpl := range templates {
		res, err := RunWS2Template(sys, tpl, queriesPerTemplate, seed+int64(i))
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
