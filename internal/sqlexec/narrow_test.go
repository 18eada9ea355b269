package sqlexec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/tsstore"
)

// meterPoint is the fixture's point i of source src: its timestamp and its
// tags a, b, c and d, with NULLs.
func meterPoint(src int64, i int) (int64, []float64) {
	vals := []float64{float64(i%11) * 0.25, float64(i%7) - 2, float64(i) * 0.5, float64(src*100 + int64(i))}
	if i%5 == 0 {
		vals[2] = model.NullValue
	}
	if i%9 == 0 {
		vals[1] = model.NullValue
	}
	return 1_000_000 + int64(i)*50 + src, vals
}

// meterStored and meterPoints: each source's points 0-63 are flushed
// (stored), 64-68 stay buffered.
const meterStored, meterPoints = 64, 69

// tagValue is a tag as the virtual table reads it.
func tagValue(v float64) relational.Value {
	if model.IsNull(v) {
		return relational.Null
	}
	return relational.Float(v)
}

// TestNarrowRowsAnswerLikeEveryPlan: a scan decodes a stored row only
// through the last tag the query names, so here, where the projection and
// the residual filter name tags a, b and c and never d, every stored row
// reaches the executor three tags wide and the scan pads d. Each query must
// render byte for byte what the same query renders with the aggregate
// pushdown off and with the decoded-blob cache off, and again when the
// cache serves it. Every source holds stored (narrow) and buffered (every
// tag) rows, and the queries that return every row are also checked cell by
// cell against the fixture.
func TestNarrowRowsAnswerLikeEveryPlan(t *testing.T) {
	load := func(cacheBytes int64) *Engine {
		e := newEngineWith(t, tsstore.Config{BatchSize: 16, BlobCacheBytes: cacheBytes})
		schema, err := e.cat.CreateSchema(model.SchemaType{
			Name: "meter", IDName: "MID", TSName: "MTS",
			Tags: []model.TagDef{{Name: "A"}, {Name: "B"}, {Name: "C"}, {Name: "D"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.cat.CreateVirtualTable("METER", schema.ID); err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, `CREATE TABLE SITE (SID BIGINT, NAME VARCHAR(16))`)
		mustExec(t, e, `CREATE INDEX site_by_id ON SITE (SID)`)
		write := func(src int64, i int) {
			t.Helper()
			ts, vals := meterPoint(src, i)
			if err := e.ts.Write(model.Point{Source: src, TS: ts, Values: vals}); err != nil {
				t.Fatal(err)
			}
		}
		for src := int64(1); src <= 6; src++ {
			if _, err := e.cat.RegisterSource(model.DataSource{ID: src, SchemaID: schema.ID, IntervalMs: 50}); err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, fmt.Sprintf(`INSERT INTO SITE VALUES (%d, 'site_%d')`, src, src))
			for i := range meterStored {
				write(src, i)
			}
		}
		if err := e.ts.Flush(); err != nil {
			t.Fatal(err)
		}
		for src := int64(1); src <= 6; src++ {
			for i := meterStored; i < meterPoints; i++ {
				write(src, i) // buffered: a dirty read's rows keep every tag
			}
		}
		return e
	}
	cached, uncached := load(1<<20), load(0)
	render := func(e *Engine, sql string) string {
		t.Helper()
		rows, _ := fetchAll(t, e, sql)
		var r relational.RowRenderer
		var out []byte
		for _, row := range rows {
			out = append(r.AppendRow(out, row, "|"), '\n')
		}
		return string(out)
	}
	for _, sql := range []string{
		`SELECT MID, MTS, A, C FROM METER WHERE B > 0`,
		`SELECT C, A + B FROM METER WHERE MID = 3 AND A IS NOT NULL`,
		`SELECT MID, A FROM METER WHERE MID IN (2, 5) AND C > 10 AND B < 3`,
		`SELECT MTS, B FROM METER WHERE A >= 1 ORDER BY MTS DESC LIMIT 20`,
		`SELECT MID, COUNT(*), COUNT(C), SUM(A), MIN(C), MAX(B) FROM METER WHERE B > -1 GROUP BY MID ORDER BY MID`,
		`SELECT COUNT(*), SUM(C), AVG(A) FROM METER WHERE MID = 4 AND B BETWEEN -1 AND 2`,
		`SELECT TIME_BUCKET(800, MTS), COUNT(A), MAX(C) FROM METER WHERE MTS < 1003000 GROUP BY TIME_BUCKET(800, MTS) ORDER BY 1`,
		`SELECT NAME, MTS, C FROM METER m, SITE s WHERE s.SID = m.MID AND s.NAME = 'site_2' AND m.A > 1`,
		`SELECT NAME, COUNT(*) FROM METER m, SITE s WHERE s.SID = m.MID AND m.B = 1 GROUP BY NAME ORDER BY NAME`,
		`SELECT * FROM METER`,
		`SELECT MID, MTS, A FROM METER`,
		`SELECT * FROM METER m, SITE s WHERE s.SID = m.MID`,
		`SELECT MTS, A, NAME FROM METER m, SITE s WHERE s.SID = m.MID`,
		`SELECT C * 2 AS C2, NAME, MTS FROM METER m, SITE s WHERE s.SID = m.MID`,
	} {
		want := render(uncached, sql)
		if want == "" {
			t.Fatalf("%s: no rows", sql)
		}
		for pass := range 2 { // the second pass is served by the cache
			if got := render(cached, sql); got != want {
				t.Fatalf("%s, pass %d: cache on:\n%s\ncache off:\n%s", sql, pass, got, want)
			}
			cached.SetAggPushdown(false)
			got := render(cached, sql)
			cached.SetAggPushdown(true)
			if got != want {
				t.Fatalf("%s, pass %d: pushdown off:\n%s\ncache off:\n%s", sql, pass, got, want)
			}
		}
	}
	if cached.ts.Stats().BlobCacheHits == 0 {
		t.Fatal("no query was served by the decoded-blob cache")
	}

	// The queries that return every point, against a reference built cell
	// by cell from the fixture: plain columns, a star, and a projection
	// mixing column picks with a computed item, over one table and over
	// the fused join.
	cell := func(src int64, i int, name string) relational.Value {
		ts, vals := meterPoint(src, i)
		switch name {
		case "MID", "SID":
			return relational.Int(src)
		case "MTS":
			return relational.Time(ts)
		case "A", "B", "C", "D":
			return tagValue(vals[name[0]-'A'])
		case "NAME":
			return relational.Str(fmt.Sprintf("site_%d", src))
		case "C2":
			if model.IsNull(vals[2]) {
				return relational.Null
			}
			return relational.Float(vals[2] * 2)
		}
		t.Fatalf("no reference for column %s", name)
		return relational.Null
	}
	sorted := func(rows []Row) string {
		var r relational.RowRenderer
		lines := make([]string, len(rows))
		for i, row := range rows {
			lines[i] = string(r.AppendRow(nil, row, "|"))
		}
		slices.Sort(lines)
		return strings.Join(lines, "\n")
	}
	for _, sql := range []string{
		`SELECT * FROM METER`,
		`SELECT MID, MTS, A FROM METER`,
		`SELECT * FROM METER m, SITE s WHERE s.SID = m.MID`,
		`SELECT MTS, A, NAME FROM METER m, SITE s WHERE s.SID = m.MID`,
		`SELECT C * 2 AS C2, NAME, MTS FROM METER m, SITE s WHERE s.SID = m.MID`,
	} {
		for _, e := range []*Engine{cached, uncached} {
			got, res := fetchAll(t, e, sql)
			var want []Row
			for src := int64(1); src <= 6; src++ {
				for i := range meterPoints {
					row := make(Row, len(res.Columns))
					for c, name := range res.Columns {
						row[c] = cell(src, i, strings.ToUpper(name))
					}
					want = append(want, row)
				}
			}
			if g, w := sorted(got), sorted(want); g != w {
				t.Fatalf("%s: rows differ from the reference:\n%s\nwant:\n%s", sql, g, w)
			}
		}
	}

	// Beneath the projection, the row a scan writes holds every tag: a
	// stored row holds its tags through the last one the query names and
	// NULL behind it, also when it follows a buffered row, which holds
	// every tag. Without the cache a stored row is decoded exactly that
	// narrow. The queries reach both writers of such rows: a scan on its
	// own and a scan driven by the fused join, re-aimed per source.
	writers := map[string]bool{}
	for _, sql := range []string{
		`SELECT MID, MTS, A FROM METER`,
		`SELECT MTS, A, NAME FROM METER m, SITE s WHERE s.SID = m.MID`,
		`SELECT MTS, A, NAME FROM METER m, SITE s WHERE s.SID = m.MID AND s.NAME >= 'site_1'`,
	} {
		res := mustExec(t, uncached, sql)
		var find func(Operator) Operator
		find = func(op Operator) Operator {
			switch o := op.(type) {
			case *virtualScan, *nlVirtualJoin:
				return o
			case *projectOp:
				return find(o.child)
			case *filterOp:
				return find(o.child)
			case *hashJoin:
				if v := find(o.left); v != nil {
					return v
				}
				return find(o.right)
			}
			return nil
		}
		src := find(res.root)
		writers[fmt.Sprintf("%T", src)] = true
		outer := 0
		if j, ok := src.(*nlVirtualJoin); ok {
			outer = len(j.outer.Columns())
		}
		narrowAfterWide, wide := 0, false
		for _, row := range drainCopies(t, src) {
			point := row[outer:]
			id := point[0].I
			i := int(point[1].I-1_000_000-id) / 50
			_, vals := meterPoint(id, i)
			for tag, v := range vals {
				want := tagValue(v)
				if tag > 0 && i < meterStored {
					want = relational.Null // stored, and only tag a is wanted
				}
				if point[2+tag] != want {
					t.Fatalf("%s: source %d point %d tag %d reads %v, want %v", sql, id, i, tag, point[2+tag], want)
				}
			}
			if i < meterStored && wide {
				narrowAfterWide++
			}
			wide = i >= meterStored
		}
		if narrowAfterWide == 0 {
			t.Fatalf("%s: no stored row follows a buffered one", sql)
		}
	}
	if !writers["*sqlexec.virtualScan"] || !writers["*sqlexec.nlVirtualJoin"] {
		t.Fatalf("the scan-level queries reached %v, want a scan and a fused join", writers)
	}
}
