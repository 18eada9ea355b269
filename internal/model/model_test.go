package model

import (
	"math"
	"testing"
)

func TestNullConvention(t *testing.T) {
	if !IsNull(NullValue) {
		t.Fatal("NullValue must be NULL")
	}
	if IsNull(0) || IsNull(math.Inf(1)) {
		t.Fatal("finite and infinite values are not NULL")
	}
}

func TestSchemaTypeColumns(t *testing.T) {
	s := SchemaType{Name: "t", Tags: []TagDef{{Name: "a"}, {Name: "b"}}}
	if s.IDColumn() != "id" || s.TSColumn() != "timestamp" {
		t.Fatalf("defaults: %q %q", s.IDColumn(), s.TSColumn())
	}
	s.IDName, s.TSName = "T_CA_ID", "T_DTS"
	if s.IDColumn() != "T_CA_ID" || s.TSColumn() != "T_DTS" {
		t.Fatalf("overrides: %q %q", s.IDColumn(), s.TSColumn())
	}
	if s.TagIndex("b") != 1 || s.TagIndex("nope") != -1 {
		t.Fatal("TagIndex")
	}
}

func TestTable1StructureMapping(t *testing.T) {
	cases := []struct {
		regular    bool
		intervalMs int64
		ingest     Structure
		historical Structure
	}{
		{true, 20, RTS, RTS},       // regular 50 Hz
		{false, 100, IRTS, IRTS},   // irregular 10 Hz
		{true, 900000, MG, RTS},    // regular 15 min (smart meter)
		{false, 1380000, MG, IRTS}, // irregular 23 min (weather station)
	}
	for i, c := range cases {
		ds := DataSource{Regular: c.regular, IntervalMs: c.intervalMs}
		if got := ds.IngestStructure(); got != c.ingest {
			t.Fatalf("case %d ingest = %v, want %v", i, got, c.ingest)
		}
		if got := ds.HistoricalStructure(); got != c.historical {
			t.Fatalf("case %d historical = %v, want %v", i, got, c.historical)
		}
	}
}

func TestFrequencyBoundary(t *testing.T) {
	// Exactly 1 Hz is "low frequency" per the paper's >1 Hz definition.
	at1Hz := DataSource{Regular: true, IntervalMs: 1000}
	if at1Hz.HighFrequency() {
		t.Fatal("1 Hz must not be high frequency")
	}
	above := DataSource{Regular: true, IntervalMs: 999}
	if !above.HighFrequency() {
		t.Fatal(">1 Hz must be high frequency")
	}
	zero := DataSource{Regular: true, IntervalMs: 0}
	if zero.SampleHz() != 0 || zero.HighFrequency() {
		t.Fatal("unset interval must not classify as high frequency")
	}
}

func TestStructureNames(t *testing.T) {
	if RTS.String() != "RTS" || IRTS.String() != "IRTS" || MG.String() != "MG" {
		t.Fatal("structure names")
	}
	if Structure(9).String() == "" {
		t.Fatal("unknown structure must render something")
	}
}

func TestPointClone(t *testing.T) {
	p := Point{Source: 1, TS: 2, Values: []float64{3, 4}}
	c := p.Clone()
	c.Values[0] = 99
	if p.Values[0] != 3 {
		t.Fatal("Clone shares backing array")
	}
}

func TestSourceStatsMerge(t *testing.T) {
	var s SourceStats
	s.Merge(SourceStats{BatchCount: 1, PointCount: 10, BlobBytes: 100, FirstTS: 50, LastTS: 90, MaxSpanMs: 40})
	if s.FirstTS != 50 || s.LastTS != 90 {
		t.Fatalf("first merge bounds: %+v", s)
	}
	s.Merge(SourceStats{BatchCount: 1, PointCount: 5, BlobBytes: 60, FirstTS: 10, LastTS: 70, MaxSpanMs: 60})
	if s.BatchCount != 2 || s.PointCount != 15 || s.BlobBytes != 160 {
		t.Fatalf("counts: %+v", s)
	}
	if s.FirstTS != 10 || s.LastTS != 90 || s.MaxSpanMs != 60 {
		t.Fatalf("bounds: %+v", s)
	}
	// Merging a zero-point delta must not clobber bounds.
	s.Merge(SourceStats{BlobBytes: -20})
	if s.FirstTS != 10 || s.LastTS != 90 {
		t.Fatalf("zero-point merge moved bounds: %+v", s)
	}
}

func TestSourceStatsSpanBounds(t *testing.T) {
	var s SourceStats
	if s.Covers(10, 10, false) || !s.Covers(10, 10, true) || s.Covers(10, 11, true) {
		t.Fatalf("empty statistics cover only a zero-reach hot record: %+v", s)
	}
	s.Merge(SourceStats{BatchCount: 1, PointCount: 8, FirstTS: -100, LastTS: -60, MaxSpanMs: 40, HotSpanMs: 40})
	s.Merge(SourceStats{BatchCount: 1, PointCount: 64, FirstTS: -900, LastTS: -400, MaxSpanMs: 500, HasCold: true, ColdLastTS: -900})
	s.Merge(SourceStats{BatchCount: 1, PointCount: 64, FirstTS: -1500, LastTS: -1000, MaxSpanMs: 450, HasCold: true, ColdLastTS: -1500})
	// Removals never shrink a bound.
	s.Merge(SourceStats{BatchCount: -3, PointCount: -136})
	if s.MaxSpanMs != 500 || s.HotSpanMs != 40 || !s.HasCold || s.ColdLastTS != -900 {
		t.Fatalf("bounds after merges: %+v", s)
	}
	for _, c := range []struct {
		key, last int64
		hot, want bool
	}{
		{-100, -60, true, true},
		{-100, -59, true, false},    // reaches past HotSpanMs
		{-900, -400, false, true},   // the negative key is a key like any other
		{-899, -400, false, false},  // keyed after ColdLastTS
		{-1500, -999, false, false}, // reaches past MaxSpanMs
	} {
		if got := s.Covers(c.key, c.last, c.hot); got != c.want {
			t.Errorf("Covers(%d, %d, hot=%v) = %v, want %v", c.key, c.last, c.hot, got, c.want)
		}
	}
}
