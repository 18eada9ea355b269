package metrics

import (
	"fmt"
	"strings"
	"testing"
)

func TestSnakeCaseKeepsAcronymsWhole(t *testing.T) {
	for in, want := range map[string]string{
		"IOBytesRead":              "io_bytes_read",
		"WALRecords":               "wal_records",
		"WALGroupCommits":          "wal_group_commits",
		"MGPartialRows":            "mg_partial_rows",
		"ConnsAccepted":            "conns_accepted",
		"QueriesTimedOut":          "queries_timed_out",
		"PoolHitRate":              "pool_hit_rate",
		"SubBucketBytesNotDecoded": "sub_bucket_bytes_not_decoded",
		"ZoneSkips":                "zone_skips",
		"P99Ms":                    "p99_ms",
		"ID":                       "id",
		"X":                        "x",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

type inner struct {
	HitsIO int64
	Rate   float64
}

type outer struct {
	First int64
	inner
	Label  string // not a counter
	hidden int64  // unexported: not a counter
	Count  int    // not int64: not a counter
	Last   int64
}

func render(v any) string {
	var b strings.Builder
	Walk(v, func(name string, value any) { fmt.Fprintln(&b, name, value) })
	return b.String()
}

// TestWalkOrderAndValues: counters come in declaration order with an
// embedded struct's in place, integers print as integers, and a pointer
// walks like the value.
func TestWalkOrderAndValues(t *testing.T) {
	v := outer{First: 1, inner: inner{HitsIO: 2, Rate: 0.5}, Label: "x", hidden: 9, Count: 9, Last: 1 << 40}
	want := "first 1\nhits_io 2\nrate 0.5\nlast 1099511627776\n"
	if got := render(v); got != want {
		t.Fatalf("Walk rendered\n%s\nwant\n%s", got, want)
	}
	if got := render(&v); got != want {
		t.Fatalf("Walk of a pointer rendered\n%s\nwant\n%s", got, want)
	}
}

// TestAddSumsEmbeddedCounters: Add reaches counters promoted from an
// embedded struct, leaves rates and non-counters alone, and refuses a
// struct of another type.
func TestAddSumsEmbeddedCounters(t *testing.T) {
	total := outer{Last: 1, inner: inner{Rate: 0.25}}
	Add(&total, outer{First: 2, inner: inner{HitsIO: 3, Rate: 0.5}, Count: 7, Last: 4})
	Add(&total, &outer{First: 10, inner: inner{HitsIO: 20}, Last: 40})
	want := outer{First: 12, inner: inner{HitsIO: 23, Rate: 0.25}, Last: 45}
	if total != want {
		t.Fatalf("sum %+v, want %+v", total, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add of a different struct type did not panic")
		}
	}()
	Add(&total, inner{})
}
