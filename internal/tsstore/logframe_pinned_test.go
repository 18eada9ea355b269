package tsstore_test

import (
	"testing"
	"time"

	"odh/internal/iotx"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
	"odh/internal/walog"
)

// TestWALBytesPinned pins what one ingest call appends to the recovery
// log, walog header included, for the two frame shapes the benchmark
// sends: a 1000-point TD frame (4 values a point, no NULL — the presence
// column is omitted) and a 150-point LD frame (15 slots a point, most of
// them NULL). The generators and scales are the harness's own, seed 1, so
// the per-point figures are its walog.bytes_per_point. The constants move
// only with the frame layout.
func TestWALBytesPinned(t *testing.T) {
	const forever = 10_000 * time.Hour
	td := iotx.NewTDGen(iotx.TDConfig{I: 1, J: 1, AccountUnit: 1000, FreqUnitHz: 20, Duration: forever, Seed: 1})
	ld := iotx.NewLDGen(iotx.LDConfig{I: 1, SensorUnit: 5000, MeanIntervalMs: 23_000, Duration: forever, Seed: 1 + 7919})
	for _, tc := range []struct {
		name string
		next func() (model.Point, bool)
		n    int
		want int64
	}{
		{"TD", td.Next, 1000, 34957},
		{"LD", func() (model.Point, bool) { p, ok := ld.Next(); p.Source += 5000; return p, ok }, 150, 7145},
	} {
		points := make([]model.Point, tc.n)
		for i := range points {
			points[i], _ = tc.next()
		}
		l, err := walog.OpenFile(pagestore.NewMemFile(), walog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := tsstore.LogFrame(l, points); err != nil {
			t.Fatal(err)
		}
		if got := l.Size(); got != tc.want {
			t.Errorf("%s frame of %d points: %d bytes logged (%.2f a point), pinned %d", tc.name, tc.n, got, float64(got)/float64(tc.n), tc.want)
		}
	}
}
