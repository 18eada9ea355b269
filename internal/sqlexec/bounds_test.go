package sqlexec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"odh/internal/model"
)

// boundLiteral is one literal of the time-bound matrix: its SQL spelling and
// the value the engine's comparison sees (an exact integer, or a float
// compared against float64(ts)).
type boundLiteral struct {
	sql     string
	isFloat bool
	i       int64
	f       float64
}

// cmp orders ts against the literal the way compareCoerced does: integers
// exactly, floats in float64.
func (l boundLiteral) cmp(ts int64) int {
	if l.isFloat {
		switch v := float64(ts); {
		case v < l.f:
			return -1
		case v > l.f:
			return 1
		}
		return 0
	}
	switch {
	case ts < l.i:
		return -1
	case ts > l.i:
		return 1
	}
	return 0
}

var boundLiterals = []boundLiteral{
	{sql: "10", i: 10},
	{sql: "-10", i: -10},
	{sql: "10.5", isFloat: true, f: 10.5},
	{sql: "-10.5", isFloat: true, f: -10.5},
	{sql: "10.0", isFloat: true, f: 10},
	{sql: "9223372036854775807", i: math.MaxInt64},
	// MinInt64 has no integer spelling in this dialect (the lexer reads the
	// magnitude first); its neighbour and the float form cover the edge.
	{sql: "-9223372036854775807", i: math.MinInt64 + 1},
	{sql: "-9223372036854775808.0", isFloat: true, f: math.MinInt64},
	{sql: "9223372036854775807.0", isFloat: true, f: math.MaxInt64},
	{sql: "'1970-01-01 00:00:00.010'", i: 10},
	{sql: "'1969-12-31 23:59:59.990'", i: -10},
}

// boundPred is one WHERE predicate over the timestamp column with its
// brute-force evaluation.
type boundPred struct {
	sql  string
	keep func(ts int64) bool
}

func boundPreds(tsCol string) []boundPred {
	var out []boundPred
	for _, l := range boundLiterals {
		l := l
		ops := []struct {
			op, mirrored string
			keep         func(c int) bool
		}{
			{"<", ">", func(c int) bool { return c < 0 }},
			{"<=", ">=", func(c int) bool { return c <= 0 }},
			{">", "<", func(c int) bool { return c > 0 }},
			{">=", "<=", func(c int) bool { return c >= 0 }},
			{"=", "=", func(c int) bool { return c == 0 }},
		}
		for _, o := range ops {
			o := o
			keep := func(ts int64) bool { return o.keep(l.cmp(ts)) }
			out = append(out,
				boundPred{fmt.Sprintf("%s %s %s", tsCol, o.op, l.sql), keep},
				boundPred{fmt.Sprintf("%s %s %s", l.sql, o.mirrored, tsCol), keep})
		}
	}
	pairs := [][2]int{{3, 2}, {1, 0}, {7, 5}, {10, 9}, {2, 5}, {6, 3}, {0, 1}, {3, 4}, {8, 2}}
	for _, p := range pairs {
		lo, hi := boundLiterals[p[0]], boundLiterals[p[1]]
		out = append(out, boundPred{
			fmt.Sprintf("%s BETWEEN %s AND %s", tsCol, lo.sql, hi.sql),
			func(ts int64) bool { return lo.cmp(ts) >= 0 && hi.cmp(ts) <= 0 },
		})
	}
	// Two conjuncts on the column intersect.
	a, b := boundLiterals[3], boundLiterals[2]
	out = append(out, boundPred{
		fmt.Sprintf("%s > %s AND %s < %s", tsCol, a.sql, tsCol, b.sql),
		func(ts int64) bool { return a.cmp(ts) > 0 && b.cmp(ts) < 0 },
	})
	return out
}

// boundFixture is one virtual table of the matrix: thirty sources (enough
// that driving one of them from the indexed dimension table always beats
// the slice scan) holding v = ts at every integer timestamp in [-20, 20].
type boundFixture struct {
	table string
	ids   []int64
}

func loadBoundFixture(t *testing.T, e *Engine, name string, regular bool, intervalMs int64, baseID int64) boundFixture {
	t.Helper()
	schema, err := e.cat.CreateSchemaType(name, []model.TagDef{{Name: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	fx := boundFixture{table: name + "_v"}
	if err := e.cat.CreateVirtualTable(fx.table, schema.ID); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE %s_dim (d_id BIGINT, d_name VARCHAR(8))`, name))
	mustExec(t, e, fmt.Sprintf(`CREATE INDEX %s_by_name ON %s_dim (d_name)`, name, name))
	for i := int64(0); i < 30; i++ {
		ds, err := e.cat.RegisterSource(model.DataSource{ID: baseID + i, SchemaID: schema.ID, Regular: regular, IntervalMs: intervalMs})
		if err != nil {
			t.Fatal(err)
		}
		fx.ids = append(fx.ids, ds.ID)
		mustExec(t, e, fmt.Sprintf(`INSERT INTO %s_dim VALUES (%d, 'n%d')`, name, ds.ID, i))
	}
	for ts := int64(-20); ts <= 20; ts++ {
		for _, id := range fx.ids {
			if err := e.ts.Write(model.Point{Source: id, TS: ts, Values: []float64{float64(ts)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.ts.Flush(); err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestVirtualTimeBoundMatrix compares every time-bound shape the planner
// absorbs — each comparison, BETWEEN and literal-on-left, over integral,
// fractional, extreme and string literals — with a brute-force evaluation
// of the predicate, on every plan that carries a pushed window: the three
// scan modes, the relational-first NL join, and the aggregate with the
// summary pushdown on and off. A pushed bound may be looser than the
// predicate (the filter re-checks) but never tighter.
func TestVirtualTimeBoundMatrix(t *testing.T) {
	e := newEngine(t)
	fixtures := []boundFixture{
		loadBoundFixture(t, e, "rts", true, 1, 100),
		loadBoundFixture(t, e, "irts", false, 50, 200),
		loadBoundFixture(t, e, "mg", false, 1380000, 300),
	}
	rowsOf := func(sql string) []string {
		rows, _ := fetchAll(t, e, sql)
		out := make([]string, len(rows))
		for i, r := range rows {
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.String()
			}
			out[i] = strings.Join(cells, ",")
		}
		sort.Strings(out)
		return out
	}
	check := func(sql string, want []string) {
		t.Helper()
		sort.Strings(want)
		if got := rowsOf(sql); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s\n got %v\nwant %v", sql, got, want)
		}
	}
	for _, fx := range fixtures {
		for _, p := range boundPreds("timestamp") {
			var kept []int64
			for ts := int64(-20); ts <= 20; ts++ {
				if p.keep(ts) {
					kept = append(kept, ts)
				}
			}
			scanRows := func(ids []int64) []string {
				var want []string
				for _, id := range ids {
					for _, ts := range kept {
						want = append(want, fmt.Sprintf("%d,%d", id, ts))
					}
				}
				return want
			}
			one, two := fx.ids[1:2], fx.ids[:2]
			check(fmt.Sprintf(`SELECT id, timestamp FROM %s WHERE id = %d AND %s`, fx.table, one[0], p.sql), scanRows(one))
			check(fmt.Sprintf(`SELECT id, timestamp FROM %s WHERE id IN (%d, %d) AND %s`, fx.table, two[0], two[1], p.sql), scanRows(two))
			check(fmt.Sprintf(`SELECT id, timestamp FROM %s WHERE %s`, fx.table, p.sql), scanRows(fx.ids))

			fused := fmt.Sprintf(`SELECT id, timestamp FROM %s v, %s d WHERE d.d_id = v.id AND d.d_name = 'n1' AND %s`,
				fx.table, strings.TrimSuffix(fx.table, "_v")+"_dim", p.sql)
			if plan := planFor(t, e, fused); !strings.Contains(plan, "plan=relational-first") {
				t.Fatalf("fused query is not relational-first:\n%s", plan)
			}
			check(fused, scanRows(one))

			// v = ts, so the aggregates name exactly which rows were folded.
			aggRow := func(ids []int64) []string {
				n := len(kept) * len(ids)
				if n == 0 {
					return []string{"0,NULL,NULL,NULL"}
				}
				var sum int64
				for _, ts := range kept {
					sum += ts * int64(len(ids))
				}
				return []string{fmt.Sprintf("%d,%d,%d,%d", n, sum, kept[0], kept[len(kept)-1])}
			}
			for _, on := range []bool{true, false} {
				e.SetAggPushdown(on)
				check(fmt.Sprintf(`SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM %s WHERE id = %d AND %s`, fx.table, one[0], p.sql), aggRow(one))
				check(fmt.Sprintf(`SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM %s WHERE %s`, fx.table, p.sql), aggRow(fx.ids))
			}
			e.SetAggPushdown(true)
		}
	}
}
