// Package model defines the operational data model of §2 of the paper:
// schema types, data sources, operational records (points), and the
// mapping from data-source characteristics to the batch structure that
// stores them (the paper's Table 1).
package model

import (
	"fmt"
	"math"

	"odh/internal/compress"
)

// NullValue is the in-memory representation of a NULL tag value (sparse
// operational records are common; see the paper's Observation table where
// most measurements are NULL for any given sensor).
var NullValue = math.NaN()

// IsNull reports whether a tag value is NULL.
func IsNull(v float64) bool { return math.IsNaN(v) }

// TagDef describes one measurement attribute of a schema type.
type TagDef struct {
	// Name is the tag (column) name exposed through the virtual table.
	Name string
	// Compression configures the variability-aware compressor for this
	// tag. The zero value requests lossless storage.
	Compression compress.Policy
}

// SchemaType groups data sources that produce records with the same data
// schema. Each schema type is exposed as one virtual table
// (id, timestamp, tags...).
type SchemaType struct {
	// ID is the catalog-assigned identifier.
	ID int64
	// Name is the schema type name; the virtual table is named
	// "<name>_v" by convention, but any name can be registered.
	Name string
	// Tags are the measurement attributes, in column order.
	Tags []TagDef
	// IDName and TSName override the virtual table's id and timestamp
	// column names (e.g. the TD schema's T_CA_ID and T_DTS). Empty means
	// "id" and "timestamp".
	IDName string
	TSName string
}

// IDColumn returns the virtual table's data-source id column name.
func (s *SchemaType) IDColumn() string {
	if s.IDName != "" {
		return s.IDName
	}
	return "id"
}

// TSColumn returns the virtual table's timestamp column name.
func (s *SchemaType) TSColumn() string {
	if s.TSName != "" {
		return s.TSName
	}
	return "timestamp"
}

// TagIndex returns the position of the named tag, or -1.
func (s *SchemaType) TagIndex(name string) int {
	for i, t := range s.Tags {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Structure identifies one of the three batch structures of the data model.
type Structure uint8

// The three batch structures (paper Figure 1).
const (
	RTS  Structure = iota // Regular Time Series: implicit timestamps
	IRTS                  // Irregular Time Series: delta-encoded timestamps
	MG                    // Mixed Grouping: one timestamp, many sources
)

// String names the structure.
func (s Structure) String() string {
	switch s {
	case RTS:
		return "RTS"
	case IRTS:
		return "IRTS"
	case MG:
		return "MG"
	}
	return fmt.Sprintf("Structure(%d)", uint8(s))
}

// HighFrequencyHz is the sampling-rate boundary between the paper's
// high-frequency (>1 Hz) and low-frequency (<1 Hz) scenarios.
const HighFrequencyHz = 1.0

// DataSource describes one sensor or device.
type DataSource struct {
	// ID identifies the source; it is the `id` column of the virtual table.
	ID int64
	// SchemaID is the schema type this source produces.
	SchemaID int64
	// Name is an optional human-readable label.
	Name string
	// Regular reports whether the source samples at identical intervals.
	Regular bool
	// IntervalMs is the sampling interval for regular sources and the
	// expected mean interval for irregular ones (used for frequency
	// classification and RTS slot computation).
	IntervalMs int64
	// Group is the MG group this source belongs to; zero when the source
	// ingests through RTS or IRTS.
	Group int64
	// GroupSlot is the source's position within its MG group.
	GroupSlot int
}

// SampleHz returns the source's (approximate) sampling frequency.
func (d *DataSource) SampleHz() float64 {
	if d.IntervalMs <= 0 {
		return 0
	}
	return 1000 / float64(d.IntervalMs)
}

// HighFrequency reports whether the source samples at more than 1 Hz.
func (d *DataSource) HighFrequency() bool { return d.SampleHz() > HighFrequencyHz }

// IngestStructure returns the batch structure used when ingesting this
// source's data, per the paper's Table 1: high-frequency sources batch
// per-source (RTS when regular, IRTS when irregular); low-frequency
// sources batch per-timestamp across a group (MG), because a single
// low-frequency source would take too long to fill a per-source batch.
func (d *DataSource) IngestStructure() Structure {
	if d.HighFrequency() {
		if d.Regular {
			return RTS
		}
		return IRTS
	}
	return MG
}

// HistoricalStructure returns the structure Table 1 prescribes for
// historical queries: low-frequency sources are reorganized from MG into
// RTS (regular) or IRTS (irregular) so per-source history reads stay
// sequential.
func (d *DataSource) HistoricalStructure() Structure {
	if d.Regular {
		return RTS
	}
	return IRTS
}

// Point is one operational record: (timestamp, id, tag values...).
type Point struct {
	// Source is the producing data source's ID.
	Source int64
	// TS is the sample timestamp in Unix milliseconds.
	TS int64
	// Values holds one entry per schema tag; NULL is represented by NaN.
	Values []float64
}

// Clone deep-copies the point.
func (p Point) Clone() Point {
	vals := make([]float64, len(p.Values))
	copy(vals, p.Values)
	return Point{Source: p.Source, TS: p.TS, Values: vals}
}

// SourceStats are the per-source statistics the catalog maintains for the
// cost model and for bounding historical scans.
type SourceStats struct {
	// BatchCount is the number of persisted batch records.
	BatchCount int64
	// PointCount is the number of persisted operational points.
	PointCount int64
	// BlobBytes is the total persisted ValueBlob size, the paper's cost
	// unit ("the expected size, in bytes, of the ValueBlobs that need to
	// be accessed").
	BlobBytes int64
	// FirstTS and LastTS bound the persisted data.
	FirstTS, LastTS int64
	// The span bounds say how far before a timestamp a record can be keyed
	// and still hold a row at or after it (Covers is the invariant, which
	// holds for every record ever put: removals never shrink a bound).
	// MaxSpanMs is the widest reach — last row timestamp minus key — of any
	// record, HotSpanMs that of any hot-tier record, and ColdLastTS the
	// largest key of any cold or stub record, when HasCold says there ever
	// was one (timestamps may be <= 0, so no value of ColdLastTS can).
	MaxSpanMs, HotSpanMs int64
	ColdLastTS           int64
	HasCold              bool
	// Unknown marks an entry the catalog could not read: its counts and
	// bounds restart from zero and vouch for nothing until the statistics
	// are re-derived from the records (UpgradeBlobs).
	Unknown bool
}

// Covers reports whether the span bounds account for a record keyed at key
// whose newest row is at last: a scan trusts them to find every record
// that reaches into its window.
func (s *SourceStats) Covers(key, last int64, hot bool) bool {
	if hot {
		return last-key <= s.HotSpanMs
	}
	return s.HasCold && key <= s.ColdLastTS && last-key <= s.MaxSpanMs
}

// BucketFloor floor-aligns ts to the bucket grid of the given width: the
// result is the largest multiple of width that is <= ts, correct for
// negative timestamps (Go's % truncates toward zero, so -1 % 10 == -1,
// not 9). Both TIME_BUCKET evaluation in sqlexec and summary-fold
// classification in tsstore call this; they must agree bit-for-bit or a
// folded aggregate lands in a different bucket than a decoded one.
// width must be positive.
func BucketFloor(ts, width int64) int64 {
	r := ts % width
	if r < 0 {
		r += width
	}
	return ts - r
}

// Merge folds other into s.
func (s *SourceStats) Merge(other SourceStats) {
	if s.PointCount == 0 {
		s.FirstTS, s.LastTS = other.FirstTS, other.LastTS
	} else if other.PointCount > 0 {
		if other.FirstTS < s.FirstTS {
			s.FirstTS = other.FirstTS
		}
		if other.LastTS > s.LastTS {
			s.LastTS = other.LastTS
		}
	}
	s.BatchCount += other.BatchCount
	s.PointCount += other.PointCount
	s.BlobBytes += other.BlobBytes
	s.MaxSpanMs = max(s.MaxSpanMs, other.MaxSpanMs)
	s.HotSpanMs = max(s.HotSpanMs, other.HotSpanMs)
	if other.HasCold && (!s.HasCold || other.ColdLastTS > s.ColdLastTS) {
		s.HasCold, s.ColdLastTS = true, other.ColdLastTS
	}
}
