package iotx

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"

	"odh/internal/model"
)

// LDConfig parameterizes one LD(i) dataset derived from the Linked Sensor
// Dataset (hurricane Ike): a massive fleet of low-frequency weather
// stations with sparse measurements. The paper's full scale is
// SensorUnit=1,000,000 with a ~23-minute mean sampling interval (replayed
// 60x faster); benchmarks run reduced scales.
type LDConfig struct {
	// I scales the number of sensors: sensors = I * SensorUnit.
	I int
	// SensorUnit is the paper's 1,000,000-sensor step.
	SensorUnit int
	// MeanIntervalMs is the mean sampling interval (paper: ~23 min, sped
	// up 60x during replay -> 23 s effective).
	MeanIntervalMs int64
	// Duration is the simulated dataset length (paper: 2 hours).
	Duration time.Duration
	// TagCount truncates the Observation schema to the first N tags
	// (Figure 7 varies it from 1 to 15); 0 means all.
	TagCount int
	// Dense makes every sensor measure every tag (Figure 7 studies record
	// size, so records must be fully populated); default sensors measure
	// a sparse subset.
	Dense bool
	// StartTS is the first observation timestamp in Unix milliseconds.
	StartTS int64
	// Seed makes generation reproducible.
	Seed int64
}

func (c LDConfig) withDefaults() LDConfig {
	if c.I <= 0 {
		c.I = 1
	}
	if c.SensorUnit <= 0 {
		c.SensorUnit = 1_000_000
	}
	if c.MeanIntervalMs <= 0 {
		c.MeanIntervalMs = 23 * 60 * 1000
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.TagCount <= 0 || c.TagCount > len(LDTagNames) {
		c.TagCount = len(LDTagNames)
	}
	if c.StartTS == 0 {
		c.StartTS = 1_220_227_200_000 // Sept 1, 2008 (hurricane Ike window)
	}
	return c
}

// Sensors returns the number of weather stations.
func (c LDConfig) Sensors() int { return c.I * c.SensorUnit }

// Label names the dataset like the paper: LD(i).
func (c LDConfig) Label() string { return fmt.Sprintf("LD(%d)", c.I) }

// LDTagNames are the Observation table's measurement columns from the
// paper (the universal set of all sensor measurements).
var LDTagNames = []string{
	"WindDirection", "AirTemperature", "WindSpeed", "WindGust",
	"PrecipitationAccumulated", "PrecipitationSmoothed", "RelativeHumidity",
	"DewPoint", "PeakWindSpeed", "PeakWindDirection", "Visibility",
	"Pressure", "WaterTemperature", "Precipitation", "SoilTemperature",
}

// LDSchema returns the Observation schema truncated to tagCount tags
// (pass 0 for all), with SensorId/Timestamp as the id/timestamp columns.
// maxDev > 0 configures lossy linear compression on every tag (the §5.3
// compression experiment uses 0.1).
func LDSchema(tagCount int, maxDev float64) model.SchemaType {
	if tagCount <= 0 || tagCount > len(LDTagNames) {
		tagCount = len(LDTagNames)
	}
	tags := make([]model.TagDef, tagCount)
	for i := 0; i < tagCount; i++ {
		tags[i] = model.TagDef{Name: LDTagNames[i]}
		if maxDev > 0 {
			tags[i].Compression.MaxDev = maxDev
		}
	}
	return model.SchemaType{Name: "observation", IDName: "SensorId", TSName: "Timestamp", Tags: tags}
}

// SensorRow is one row of the LinkedSensor relational table.
type SensorRow struct {
	SensorID int64
	Name     string
	Lat, Lon float64
}

// LDGen generates one LD dataset: the LinkedSensor rows and a
// time-ordered stream of sparse observation records.
type LDGen struct {
	cfg     LDConfig
	rng     *rand.Rand
	measure [][]int   // per sensor: which tag ordinals it measures
	state   []float64 // per sensor: base temperature offset
	events  eventHeap
	endTS   int64
	baseID  int64
}

// ldSensorIDBase offsets sensor ids so they never collide with TD account
// ids when both datasets share a historian in mixed tests.
const ldSensorIDBase = 1_000_000_000

// NewLDGen builds a generator for cfg.
func NewLDGen(cfg LDConfig) *LDGen {
	cfg = cfg.withDefaults()
	g := &LDGen{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed + 11)),
		measure: make([][]int, cfg.Sensors()),
		state:   make([]float64, cfg.Sensors()),
		endTS:   cfg.StartTS + cfg.Duration.Milliseconds(),
		baseID:  ldSensorIDBase,
	}
	for i := 0; i < cfg.Sensors(); i++ {
		// Each station measures a sparse subset: AirTemperature plus 2-6
		// others (the paper: "only tens of tags are collected ... all the
		// other tags have the value of NULL").
		subset := []int{}
		if cfg.Dense {
			for t := 0; t < cfg.TagCount; t++ {
				subset = append(subset, t)
			}
		} else if cfg.TagCount > 1 {
			subset = append(subset, 1) // AirTemperature
			n := 2 + g.rng.Intn(5)
			for len(subset) < n+1 && len(subset) < cfg.TagCount {
				t := g.rng.Intn(cfg.TagCount)
				dup := false
				for _, s := range subset {
					if s == t {
						dup = true
					}
				}
				if !dup {
					subset = append(subset, t)
				}
			}
		} else {
			subset = append(subset, 0)
		}
		g.measure[i] = subset
		g.state[i] = 10 + g.rng.Float64()*20
		first := cfg.StartTS + int64(g.rng.Int63n(cfg.MeanIntervalMs))
		heap.Push(&g.events, event{ts: first, source: g.baseID + int64(i) + 1})
	}
	return g
}

// Config returns the generator's (defaulted) configuration.
func (g *LDGen) Config() LDConfig { return g.cfg }

// SensorIDs returns the data-source ids in order.
func (g *LDGen) SensorIDs() []int64 {
	out := make([]int64, g.cfg.Sensors())
	for i := range out {
		out[i] = g.baseID + int64(i) + 1
	}
	return out
}

// Sensors returns the LinkedSensor relational rows; stations cluster
// around the hurricane Ike landfall region with outliers across the US.
func (g *LDGen) Sensors() []SensorRow {
	rng := rand.New(rand.NewSource(g.cfg.Seed + 12))
	out := make([]SensorRow, g.cfg.Sensors())
	for i := range out {
		lat := 29.5 + rng.NormFloat64()*3
		lon := -95 + rng.NormFloat64()*8
		if rng.Float64() < 0.2 { // scattered stations elsewhere
			lat = 25 + rng.Float64()*24
			lon = -125 + rng.Float64()*60
		}
		out[i] = SensorRow{
			SensorID: g.baseID + int64(i) + 1,
			Name:     fmt.Sprintf("A%05d", i+1),
			Lat:      lat,
			Lon:      lon,
		}
	}
	return out
}

// Next streams the next observation in global timestamp order.
func (g *LDGen) Next() (model.Point, bool) {
	for g.events.Len() > 0 {
		ev := heap.Pop(&g.events).(event)
		if ev.ts >= g.endTS {
			continue
		}
		// Sampling intervals vary around the mean (the LD series is
		// irregular).
		jitter := 0.7 + g.rng.Float64()*0.6
		next := ev.ts + int64(float64(g.cfg.MeanIntervalMs)*jitter)
		heap.Push(&g.events, event{ts: next, source: ev.source})

		idx := int(ev.source - g.baseID - 1)
		vals := make([]float64, g.cfg.TagCount)
		for i := range vals {
			vals[i] = model.NullValue
		}
		// Weather signals: smooth series driven by a shared storm phase
		// plus per-sensor offsets — realistic prey for linear compression.
		phase := float64(ev.ts-g.cfg.StartTS) / float64(g.cfg.Duration.Milliseconds())
		for _, tag := range g.measure[idx] {
			switch LDTagNames[tag] {
			case "AirTemperature":
				vals[tag] = g.state[idx] + 5*math.Sin(phase*2*math.Pi) + g.rng.NormFloat64()*0.1
			case "WindSpeed", "WindGust", "PeakWindSpeed":
				vals[tag] = math.Abs(8 + 30*phase + g.rng.NormFloat64()*2)
			case "WindDirection", "PeakWindDirection":
				vals[tag] = math.Mod(180+phase*360+g.rng.NormFloat64()*5+360, 360)
			case "Pressure":
				vals[tag] = 1013 - 40*phase + g.rng.NormFloat64()*0.2
			case "RelativeHumidity":
				vals[tag] = math.Min(100, 60+35*phase+g.rng.NormFloat64())
			default:
				vals[tag] = g.state[idx]*0.1 + phase*3 + g.rng.NormFloat64()*0.05
			}
		}
		return model.Point{Source: ev.source, TS: ev.ts, Values: vals}, true
	}
	return model.Point{}, false
}
