package iotx

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"odh/internal/model"
)

func TestCSVRoundtripTD(t *testing.T) {
	cfg := TDConfig{I: 1, J: 1, AccountUnit: 5, FreqUnitHz: 5, Duration: 2 * time.Second, Seed: 3}
	var buf bytes.Buffer
	n, err := ExportCSV(&buf, NewTDGen(cfg), TDTagNames)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing exported")
	}
	stream, err := NewCSVStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := stream.TagNames(); len(got) != 4 || got[0] != "T_TRADE_PRICE" {
		t.Fatalf("tags: %v", got)
	}
	// Replay must be bit-identical to a fresh generation.
	ref := NewTDGen(cfg)
	var replayed int64
	for {
		got, ok := stream.Next()
		want, okRef := ref.Next()
		if ok != okRef {
			t.Fatalf("stream lengths diverge at %d", replayed)
		}
		if !ok {
			break
		}
		if got.Source != want.Source || got.TS != want.TS {
			t.Fatalf("point %d header: %+v vs %+v", replayed, got, want)
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("point %d value %d: %v vs %v", replayed, i, got.Values[i], want.Values[i])
			}
		}
		replayed++
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if replayed != n {
		t.Fatalf("replayed %d of %d", replayed, n)
	}
}

func TestCSVRoundtripSparseLD(t *testing.T) {
	cfg := LDConfig{I: 1, SensorUnit: 10, MeanIntervalMs: 5000, Duration: time.Minute, Seed: 5}
	var buf bytes.Buffer
	if _, err := ExportCSV(&buf, NewLDGen(cfg), LDTagNames); err != nil {
		t.Fatal(err)
	}
	stream, err := NewCSVStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	nulls, total := 0, 0
	for {
		p, ok := stream.Next()
		if !ok {
			break
		}
		for _, v := range p.Values {
			total++
			if model.IsNull(v) {
				nulls++
			}
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if nulls == 0 || nulls == total {
		t.Fatalf("sparseness lost: %d/%d nulls", nulls, total)
	}
}

func TestCSVReplayDrivesWS1(t *testing.T) {
	scale := tinyScale()
	cfg := scale.TDConfigFor(1, 1)
	var buf bytes.Buffer
	if _, err := ExportCSV(&buf, NewTDGen(cfg), TDTagNames); err != nil {
		t.Fatal(err)
	}
	sys, err := NewODH(scale.sysConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.SetupTD(NewTDGen(cfg)); err != nil {
		t.Fatal(err)
	}
	stream, err := NewCSVStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWS1(sys, "TD(1,1)-replay", stream, cfg.StartTS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != cfg.expectedExported(t) {
		// expectedExported is just the regenerated count; compare directly.
		t.Fatalf("replayed %d points", res.Points)
	}
}

// expectedExported regenerates the stream and counts it.
func (c TDConfig) expectedExported(t *testing.T) int64 {
	t.Helper()
	gen := NewTDGen(c)
	var n int64
	for {
		if _, ok := gen.Next(); !ok {
			return n
		}
		n++
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := NewCSVStream(strings.NewReader("a,b\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	stream, err := NewCSVStream(strings.NewReader("timestamp,source,v\n100,1,notanumber\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stream.Next(); ok {
		t.Fatal("bad value parsed")
	}
	if stream.Err() == nil {
		t.Fatal("no error surfaced")
	}
	// Arity mismatch.
	stream2, _ := NewCSVStream(strings.NewReader("timestamp,source,v\n100,1\n"))
	if _, ok := stream2.Next(); ok || stream2.Err() == nil {
		t.Fatal("short record accepted")
	}
}
