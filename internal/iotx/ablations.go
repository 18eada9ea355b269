package iotx

import "fmt"

// AblationRow is one arm of one design-choice ablation: the measured
// value with its unit and, where the choice trades space, the bytes it
// left behind (0 otherwise).
type AblationRow struct {
	Ablation string
	Arm      string
	Value    float64
	Unit     string
	Bytes    int64
}

// RunAblations quantifies the design choices behind the batch structures,
// each arm on a fresh ODH candidate: batch size b (the I/O-amortization
// claim), the compression pipeline on per-source IRTS batches (TD, where
// codecs see temporal locality; MG columns run across group members, so
// its savings come from the data model and lossy policies instead), MG
// grouping against per-source batches for low-frequency sources (Table
// 1's rationale).
func RunAblations(scale Scale) ([]AblationRow, error) {
	td, ld, b := scale.TDConfigFor(2, 2), scale.LDConfigFor(2), scale.BatchSize
	type measure func(sys *System) (value float64, unit string, bytes int64, err error)

	tdIngest := func(sys *System) (float64, string, int64, error) {
		res, err := RunWS1TD(sys, td)
		return res.AvgThroughput, "pts/s", res.StorageBytes, err
	}
	tdIngestBlobs := func(sys *System) (float64, string, int64, error) {
		res, err := RunWS1TD(sys, td)
		return res.AvgThroughput, "pts/s", sys.BlobBytes(), err
	}
	ldIngest := func(sys *System) (float64, string, int64, error) {
		res, err := RunWS1LD(sys, ld, 0)
		return res.AvgThroughput, "pts/s", res.StorageBytes, err
	}

	var rows []AblationRow
	for _, a := range []struct {
		ablation, arm string
		cfg           SystemConfig
		run           measure
	}{
		{"batch size", "b=1", SystemConfig{BatchSize: 1}, tdIngest},
		{"batch size", "b=8", SystemConfig{BatchSize: 8}, tdIngest},
		{"batch size", "b=64", SystemConfig{BatchSize: 64}, tdIngest},
		{"batch size", "b=512", SystemConfig{BatchSize: 512}, tdIngest},
		{"compression (TD)", "on", SystemConfig{BatchSize: b}, tdIngestBlobs},
		{"compression (TD)", "off", SystemConfig{BatchSize: b, DisableCompression: true}, tdIngestBlobs},
		{"low-frequency ingest (LD)", "MG groups of 64", SystemConfig{BatchSize: b, GroupSize: 64}, ldIngest},
		{"low-frequency ingest (LD)", "per-source (groups of 1)", SystemConfig{BatchSize: b, GroupSize: 1}, ldIngest},
	} {
		sys, err := NewODH(a.cfg)
		if err != nil {
			return nil, err
		}
		value, unit, bytes, err := a.run(sys)
		sys.Close()
		if err != nil {
			return nil, fmt.Errorf("ablation %s, %s: %w", a.ablation, a.arm, err)
		}
		rows = append(rows, AblationRow{a.ablation, a.arm, value, unit, bytes})
	}
	return rows, nil
}
