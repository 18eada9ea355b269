package relational

import (
	"errors"
	"math"
	"slices"
	"testing"

	"odh/internal/fault"
	"odh/internal/pagestore"
)

// extremeFloats are the doubles whose index keys the float-to-int
// conversion used to get wrong: beyond the int64 range they keyed at
// MinInt64 on amd64, so range scans over them came back short.
var extremeFloats = []float64{
	math.Inf(-1), -1e300, -(1 << 63), -(1<<53 + 1), -20.5, -1, 0, 1, 10, 20.5,
	1<<53 + 1, math.Nextafter(1<<53, math.Inf(1)), math.MaxInt64, 1 << 63,
	math.Nextafter(1<<63, math.Inf(1)), 1e300, math.Inf(1),
}

// TestIndexCursorsOverFloatExtremes: range and prefix cursors over a DOUBLE
// index return every row a filtered full scan keeps — the cursors may
// return more, which the executor's filter re-checks — with ±Inf, ±1e300,
// ±2^63, ±(2^53+1) and NaN stored among ordinary values.
func TestIndexCursorsOverFloatExtremes(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl, err := db.CreateTable("T", []Column{{Name: "id", Type: KindInt}, {Name: "x", Type: KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := tbl.CreateIndex("t_x", "x")
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range append(slices.Clone(extremeFloats), math.NaN()) {
		if _, err := tbl.Insert([]Value{Int(int64(i)), Float(x)}); err != nil {
			t.Fatal(err)
		}
	}
	_, all := drain(t, tbl.Cursor())
	ids := func(rows [][]Value, keep func(x float64) bool) []int64 {
		var out []int64
		for _, r := range rows {
			if keep(r[1].F) {
				out = append(out, r[0].I)
			}
		}
		slices.Sort(out)
		return out
	}
	bounds := []Value{Null}
	for _, x := range extremeFloats {
		bounds = append(bounds, Float(x))
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			in := func(x float64) bool {
				return (lo.IsNull() || x >= lo.F) && (hi.IsNull() || x <= hi.F)
			}
			_, got := drain(t, idx.Cursor(lo, hi))
			if g, w := ids(got, in), ids(all, in); !slices.Equal(g, w) {
				t.Fatalf("range [%v, %v]: cursor keeps ids %v, full scan %v", lo, hi, g, w)
			}
		}
	}
	for _, x := range extremeFloats {
		eq := func(y float64) bool { return y == x }
		_, got := drain(t, idx.CursorPrefix([]Value{Float(x)}))
		if g, w := ids(got, eq), ids(all, eq); !slices.Equal(g, w) {
			t.Fatalf("prefix %g: cursor keeps ids %v, full scan %v", x, g, w)
		}
	}
	if _, got := drain(t, idx.CursorPrefix([]Value{Float(math.NaN())})); len(ids(got, math.IsNaN)) != 1 {
		t.Fatalf("prefix NaN: %v, want the NaN row", got)
	}
}

// TestCreateIndexFailedBackfillRegistersNothing: when the backfill cannot
// write, CREATE INDEX returns the error and leaves the table without the
// index, whichever write fails; once the writes succeed the index holds
// every row.
func TestCreateIndexFailedBackfillRegistersNothing(t *testing.T) {
	const rows = 600
	failed := 0
	for n := 0; ; n++ {
		file := fault.Wrap(pagestore.NewMemFile())
		store, err := pagestore.Open(file, pagestore.Options{PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(store, ProfileRDB)
		if err != nil {
			t.Fatal(err)
		}
		tbl := tradeTable(t, db)
		for i := 0; i < rows; i++ {
			if _, err := tbl.Insert([]Value{Time(int64(i)), Int(int64(i % 13)), Float(float64(i)), Float(0.5)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		file.FailWritesAfter(n)
		idx, err := tbl.CreateIndex("by_ca", "T_CA_ID")
		if err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("writes failing after %d: %v", n, err)
			}
			if got := len(tbl.Indexes()); got != 0 {
				t.Fatalf("writes failing after %d: %d indexes registered after %v", n, got, err)
			}
			failed++
			continue
		}
		if got := idx.tree.Count(); got != rows {
			t.Fatalf("writes failing after %d: CREATE INDEX succeeded with %d of %d rows", n, got, rows)
		}
		if failed == 0 {
			t.Fatal("no write failure reached the backfill")
		}
		return
	}
}
