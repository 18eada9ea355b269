package metrics

import (
	"testing"
	"time"
)

func TestProcessCPUTime(t *testing.T) {
	cpu1, ok := ProcessCPUTime()
	if !ok {
		t.Skip("no procfs on this platform")
	}
	// Burn some CPU.
	x := 0.0
	for i := 0; i < 50_000_000; i++ {
		x += float64(i) * 1.0000001
	}
	_ = x
	cpu2, ok := ProcessCPUTime()
	if !ok {
		t.Fatal("procfs disappeared")
	}
	if cpu2 < cpu1 {
		t.Fatalf("CPU time went backwards: %v -> %v", cpu1, cpu2)
	}
}

func TestCPUMeterLoads(t *testing.T) {
	m := NewCPUMeter()
	if !m.ok {
		t.Skip("no procfs")
	}
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += float64(i)
	}
	_ = x
	m.Sample()
	avg := m.AvgLoad()
	// Runtime helper threads (GC, the race detector) can push process CPU
	// slightly past wall * NumCPU; only implausible values fail.
	if avg < 0 || avg > 4 {
		t.Fatalf("AvgLoad = %v, want a plausible load fraction", avg)
	}
	// Simulated load: the same CPU over a huge simulated window is tiny.
	sim := m.AvgLoadSimulated(time.Hour)
	if sim >= avg && avg > 0 {
		t.Fatalf("simulated load %v should be below wall load %v", sim, avg)
	}
}

func TestThroughput(t *testing.T) {
	tp := NewThroughput()
	for i := 0; i < 10; i++ {
		tp.Add(1000)
	}
	if tp.points != 10000 {
		t.Fatalf("points = %d", tp.points)
	}
	if tp.Avg() <= 0 {
		t.Fatal("Avg must be positive")
	}
	if tp.Max() < tp.Avg()*0.0001 {
		t.Fatal("Max must be positive")
	}
}

func TestThroughputWindowedMax(t *testing.T) {
	tp := NewThroughput()
	// Force at least one window to close.
	tp.Add(5000)
	time.Sleep(300 * time.Millisecond)
	tp.Add(5000)
	if tp.Max() <= 0 {
		t.Fatalf("Max = %v", tp.Max())
	}
	if tp.points != 10000 {
		t.Fatalf("points = %d", tp.points)
	}
}

func TestSampleSimulatedTracksMax(t *testing.T) {
	m := NewCPUMeter()
	if !m.ok {
		t.Skip("no procfs")
	}
	// Burn until the process clock has ticked past the meter's start: a
	// fixed loop can finish inside one clock tick (10 ms).
	x := 0.0
	for deadline := time.Now().Add(5 * time.Second); ; {
		for i := 0; i < 1_000_000; i++ {
			x += float64(i)
		}
		if cpu, _ := ProcessCPUTime(); cpu > m.lastCPU || time.Now().After(deadline) {
			break
		}
	}
	_ = x
	m.SampleSimulated(time.Millisecond) // tiny window -> huge load
	if m.MaxLoad() <= 0 {
		t.Skip("jiffy granularity hid the burn on this machine")
	}
	m.SampleSimulated(time.Hour) // huge window -> tiny load, max unchanged
	if m.MaxLoad() <= 0 {
		t.Fatal("max load lost")
	}
}

func TestAvgLoadSimulatedZeroWindow(t *testing.T) {
	m := NewCPUMeter()
	if m.AvgLoadSimulated(0) != 0 {
		t.Fatal("zero window must yield 0")
	}
}
