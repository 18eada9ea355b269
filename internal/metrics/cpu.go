// Package metrics provides the measurement plumbing the IoT-X benchmark
// reports: process CPU time (for the paper's "Avg/Max CPU Load" columns),
// windowed throughput meters, and storage accounting helpers — and the
// one walk over counter structs behind STATS, odh-cli and the cluster
// roll-up (Walk, Add).
package metrics

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// clockTicksPerSecond is the kernel's USER_HZ; 100 on effectively every
// Linux configuration this benchmark targets.
const clockTicksPerSecond = 100

// ProcessCPUTime returns the process's cumulative user+system CPU time,
// read from /proc/self/stat. On platforms without procfs it returns 0 and
// false, and CPU columns degrade to n/a.
func ProcessCPUTime() (time.Duration, bool) {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, false
	}
	// Field 2 (comm) may contain spaces; skip past the closing paren.
	s := string(data)
	close := strings.LastIndexByte(s, ')')
	if close < 0 {
		return 0, false
	}
	fields := strings.Fields(s[close+1:])
	// After comm and state: utime is field 11, stime field 12 (0-based in
	// this slice: state=0, so utime=11, stime=12).
	if len(fields) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	ticks := utime + stime
	return time.Duration(ticks) * time.Second / clockTicksPerSecond, true
}

// CPUMeter converts CPU-time deltas into load fractions the way the
// paper's tables report them: CPU seconds consumed per elapsed second,
// normalized by the core count, optionally against *simulated* elapsed
// time (the benchmark ingests faster than real time; load at real-time
// rate is cpuTime / simulatedDuration).
type CPUMeter struct {
	start     time.Duration
	startWall time.Time
	ok        bool

	// windows accumulate per-window loads for the Max column.
	lastCPU  time.Duration
	lastWall time.Time
	maxLoad  float64
	samples  int
}

// NewCPUMeter starts measuring.
func NewCPUMeter() *CPUMeter {
	cpu, ok := ProcessCPUTime()
	now := time.Now()
	return &CPUMeter{start: cpu, startWall: now, ok: ok, lastCPU: cpu, lastWall: now}
}

// Sample closes one measurement window against wall time and records its
// load for the Max column.
func (m *CPUMeter) Sample() {
	if !m.ok {
		return
	}
	cpu, ok := ProcessCPUTime()
	if !ok {
		return
	}
	now := time.Now()
	wall := now.Sub(m.lastWall)
	if wall <= 0 {
		return
	}
	load := float64(cpu-m.lastCPU) / float64(wall) / float64(runtime.NumCPU())
	if load > m.maxLoad {
		m.maxLoad = load
	}
	m.samples++
	m.lastCPU, m.lastWall = cpu, now
}

// SampleSimulated closes one window against a simulated duration: the
// load the machine would show if ingest arrived at real-time rate.
func (m *CPUMeter) SampleSimulated(simulated time.Duration) {
	if !m.ok || simulated <= 0 {
		return
	}
	cpu, ok := ProcessCPUTime()
	if !ok {
		return
	}
	load := float64(cpu-m.lastCPU) / float64(simulated) / float64(runtime.NumCPU())
	if load > m.maxLoad {
		m.maxLoad = load
	}
	m.samples++
	m.lastCPU = cpu
	m.lastWall = time.Now()
}

// AvgLoad returns the average CPU load since the meter started, against
// wall time.
func (m *CPUMeter) AvgLoad() float64 {
	if !m.ok {
		return 0
	}
	cpu, ok := ProcessCPUTime()
	if !ok {
		return 0
	}
	wall := time.Since(m.startWall)
	if wall <= 0 {
		return 0
	}
	return float64(cpu-m.start) / float64(wall) / float64(runtime.NumCPU())
}

// AvgLoadSimulated returns CPU consumed divided by a simulated duration —
// the capacity-headroom number the paper's Tables 2 and 3 report.
func (m *CPUMeter) AvgLoadSimulated(simulated time.Duration) float64 {
	if !m.ok || simulated <= 0 {
		return 0
	}
	cpu, ok := ProcessCPUTime()
	if !ok {
		return 0
	}
	return float64(cpu-m.start) / float64(simulated) / float64(runtime.NumCPU())
}

// MaxLoad returns the highest windowed load observed via Sample calls.
func (m *CPUMeter) MaxLoad() float64 { return m.maxLoad }

// Supported reports whether CPU accounting is available on this platform.
func (m *CPUMeter) Supported() bool { return m.ok }

// Throughput measures points per second over a run.
type Throughput struct {
	start  time.Time
	points int64

	// windowed max
	windowStart  time.Time
	windowPoints int64
	maxPerSec    float64
}

// NewThroughput starts a throughput measurement.
func NewThroughput() *Throughput {
	now := time.Now()
	return &Throughput{start: now, windowStart: now}
}

// Add records n ingested or returned data points.
func (t *Throughput) Add(n int64) {
	t.points += n
	t.windowPoints += n
	if w := time.Since(t.windowStart); w >= 250*time.Millisecond {
		rate := float64(t.windowPoints) / w.Seconds()
		if rate > t.maxPerSec {
			t.maxPerSec = rate
		}
		t.windowPoints = 0
		t.windowStart = time.Now()
	}
}

// Total returns total points recorded.
func (t *Throughput) Total() int64 { return t.points }

// Avg returns the average points/second so far.
func (t *Throughput) Avg() float64 {
	el := time.Since(t.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(t.points) / el
}

// Max returns the highest windowed rate seen.
func (t *Throughput) Max() float64 {
	if t.maxPerSec == 0 {
		return t.Avg()
	}
	return t.maxPerSec
}
