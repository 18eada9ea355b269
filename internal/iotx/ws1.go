package iotx

import (
	"fmt"
	"time"

	"odh/internal/metrics"
	"odh/internal/model"
)

// WS1Result is one write-workload measurement, carrying every column the
// paper's insert figures and case-study tables report.
type WS1Result struct {
	Dataset string
	System  string
	// Points is the number of operational records ingested.
	Points int64
	// Values is the number of non-NULL tag values ingested (the paper's
	// "data points"; Figure 7's y-axis).
	Values int64
	// AvgThroughput and MaxThroughput are points/second against wall time
	// (Figures 5 and 6, Table 3's "Avg Insert Throu.").
	AvgThroughput float64
	MaxThroughput float64
	// AvgCPU and MaxCPU are wall-time CPU load fractions.
	AvgCPU float64
	MaxCPU float64
	// AvgCPUAtRate and MaxCPUAtRate are CPU load normalized to the
	// simulated (real-time) arrival rate — Tables 2 and 3's CPU columns.
	AvgCPUAtRate float64
	MaxCPUAtRate float64
	// StorageBytes is the footprint after flush (Table 7).
	StorageBytes int64
	// IOBytesWritten is total page I/O; IOBytesPerSec normalizes by the
	// simulated duration (Table 3's "Avg IO Throu.").
	IOBytesWritten int64
	IOBytesPerSec  float64
	// ValuesPerSec is non-NULL tag values ingested per second.
	ValuesPerSec float64
	// Wall and Simulated are elapsed wall time and dataset time.
	Wall      time.Duration
	Simulated time.Duration
}

// pointStream is the common shape of the TD and LD generators.
type pointStream interface {
	Next() (model.Point, bool)
}

// RunWS1 drives one candidate through one dataset's point stream. Points
// are materialized first so the measurement covers the insert path alone,
// like the paper's simulator replaying pre-generated CSV files. The
// stream must be time-ordered; CPU is sampled once per simulated second
// of data so MaxCPUAtRate reflects bursts.
func RunWS1(sys *System, dataset string, stream pointStream, startTS int64) (WS1Result, error) {
	res := WS1Result{Dataset: dataset, System: sys.Name}
	var points []model.Point
	for {
		p, ok := stream.Next()
		if !ok {
			break
		}
		for _, v := range p.Values {
			if !model.IsNull(v) {
				res.Values++
			}
		}
		points = append(points, p)
	}
	wallStart := time.Now()
	cpu := metrics.NewCPUMeter()
	tp := metrics.NewThroughput()
	ioBefore := sys.IOStats()
	windowStart := startTS
	lastTS := startTS
	const cpuWindowMs = 1000
	for _, p := range points {
		if err := sys.InsertOperational(p); err != nil {
			return res, fmt.Errorf("%s %s: insert: %w", sys.Name, dataset, err)
		}
		res.Points++
		tp.Add(1)
		lastTS = max(lastTS, p.TS)
		if p.TS-windowStart >= cpuWindowMs {
			cpu.SampleSimulated(time.Duration(p.TS-windowStart) * time.Millisecond)
			windowStart = p.TS
		}
	}
	if err := sys.FlushOperational(); err != nil {
		return res, err
	}
	res.Wall = time.Since(wallStart)
	res.Simulated = simulatedDuration(startTS, lastTS)
	res.AvgThroughput = tp.Avg()
	res.MaxThroughput = tp.Max()
	res.ValuesPerSec = res.AvgThroughput * float64(res.Values) / float64(max(res.Points, 1))
	res.AvgCPU = cpu.AvgLoad()
	res.MaxCPU = cpu.MaxLoad()
	if res.Simulated > 0 {
		res.AvgCPUAtRate = cpu.AvgLoadSimulated(res.Simulated)
		res.MaxCPUAtRate = cpu.MaxLoad()
	}
	storage, err := sys.StorageBytes()
	if err != nil {
		return res, err
	}
	res.StorageBytes = storage
	ioAfter := sys.IOStats()
	res.IOBytesWritten = ioAfter.BytesWritten - ioBefore.BytesWritten
	if sec := res.Simulated.Seconds(); sec > 0 {
		res.IOBytesPerSec = float64(res.IOBytesWritten) / sec
	}
	return res, nil
}

// RunWS1TD generates a fresh TD dataset and drives sys through it.
func RunWS1TD(sys *System, cfg TDConfig) (WS1Result, error) {
	gen := NewTDGen(cfg)
	if err := sys.SetupTD(gen); err != nil {
		return WS1Result{}, err
	}
	return RunWS1(sys, gen.Config().Label(), gen, gen.Config().StartTS)
}

// RunWS1LD generates a fresh LD dataset and drives sys through it.
// maxDev > 0 enables lossy linear compression on ODH (§5.3's compression
// note); 0 keeps the default lossless configuration.
func RunWS1LD(sys *System, cfg LDConfig, maxDev float64) (WS1Result, error) {
	gen := NewLDGen(cfg)
	if err := sys.SetupLD(gen, maxDev); err != nil {
		return WS1Result{}, err
	}
	return RunWS1(sys, gen.Config().Label(), gen, gen.Config().StartTS)
}
