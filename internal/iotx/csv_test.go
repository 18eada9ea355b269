package iotx

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"
	"time"

	"odh/internal/model"
)

// pointSlice is a pointStream over fixed points.
type pointSlice []model.Point

func (s *pointSlice) Next() (model.Point, bool) {
	if len(*s) == 0 {
		return model.Point{}, false
	}
	p := (*s)[0]
	*s = (*s)[1:]
	return p, true
}

// parseExport reads an exported CSV back: its tag names and its points,
// an empty field read as NULL.
func parseExport(t *testing.T, b []byte) (tags []string, pts []model.Point) {
	t.Helper()
	records, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || len(records[0]) < 3 || records[0][0] != "timestamp" || records[0][1] != "source" {
		t.Fatalf("header %v is not an IoT-X export", records[0])
	}
	tags = records[0][2:]
	for _, r := range records[1:] {
		ts, err1 := strconv.ParseInt(r[0], 10, 64)
		src, err2 := strconv.ParseInt(r[1], 10, 64)
		if err1 != nil || err2 != nil || len(r) != len(tags)+2 {
			t.Fatalf("record %v", r)
		}
		p := model.Point{Source: src, TS: ts, Values: make([]float64, len(tags))}
		for i, f := range r[2:] {
			if f == "" {
				p.Values[i] = model.NullValue
			} else if p.Values[i], err1 = strconv.ParseFloat(f, 64); err1 != nil {
				t.Fatalf("record %v: %v", r, err1)
			}
		}
		pts = append(pts, p)
	}
	return tags, pts
}

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
	tags, pts := parseExport(t, buf.Bytes())
	if len(tags) != 4 || tags[0] != "T_TRADE_PRICE" {
		t.Fatalf("tags: %v", tags)
	}
	if int64(len(pts)) != n {
		t.Fatalf("%d records for %d exported points", len(pts), n)
	}
	// The export reads back bit-identical to a fresh generation.
	ref := NewTDGen(cfg)
	for i, got := range pts {
		want, _ := ref.Next()
		if got.Source != want.Source || got.TS != want.TS {
			t.Fatalf("point %d header: %+v vs %+v", i, got, want)
		}
		for j := range want.Values {
			if math.Float64bits(got.Values[j]) != math.Float64bits(want.Values[j]) {
				t.Fatalf("point %d value %d: %v vs %v", i, j, got.Values[j], want.Values[j])
			}
		}
	}
	if _, more := ref.Next(); more {
		t.Fatal("export stopped before the generator")
	}
}

func TestCSVRoundtripSparseLD(t *testing.T) {
	cfg := LDConfig{I: 1, SensorUnit: 10, MeanIntervalMs: 5000, Duration: time.Minute, Seed: 5}
	var buf bytes.Buffer
	if _, err := ExportCSV(&buf, NewLDGen(cfg), LDTagNames); err != nil {
		t.Fatal(err)
	}
	_, pts := parseExport(t, buf.Bytes())
	nulls, total := 0, 0
	for _, p := range pts {
		for _, v := range p.Values {
			total++
			if model.IsNull(v) {
				nulls++
			}
		}
	}
	if nulls == 0 || nulls == total {
		t.Fatalf("sparseness lost: %d/%d nulls", nulls, total)
	}
}

// TestCSVExportBytes pins the layout: the header, then per point its
// timestamp, source and values, NULL as an empty field, floats in their
// shortest round-tripping form.
func TestCSVExportBytes(t *testing.T) {
	pts := pointSlice{
		{Source: 7, TS: -5, Values: []float64{1.5, model.NullValue}},
		{Source: 12, TS: 1384732800000, Values: []float64{-2.5e-07, 0.1}},
	}
	var buf bytes.Buffer
	if n, err := ExportCSV(&buf, &pts, []string{"a", "b c"}); err != nil || n != 2 {
		t.Fatalf("ExportCSV = %d, %v", n, err)
	}
	want := "timestamp,source,a,b c\n-5,7,1.5,\n1384732800000,12,-2.5e-07,0.1\n"
	if got := buf.String(); got != want {
		t.Fatalf("export:\n%q\nwant\n%q", got, want)
	}
}

func TestCSVErrors(t *testing.T) {
	pts := pointSlice{
		{Source: 1, TS: 100, Values: []float64{1}},
		{Source: 1, TS: 200, Values: []float64{1, 2}},
	}
	n, err := ExportCSV(new(bytes.Buffer), &pts, []string{"v"})
	if err == nil || n != 1 {
		t.Fatalf("a point wider than the header: %d exported, %v", n, err)
	}
}
