package sqlexec

import (
	"fmt"
	"testing"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/tsstore"
)

// TestNarrowRowsAnswerLikeEveryPlan: a scan decodes a stored row only
// through the last tag the query names, so here, where the projection and
// the residual filter name tags a, b and c and never d, every stored row
// reaches the executor three tags wide and the scan pads d. Each query must
// render byte for byte what the same query renders with the aggregate
// pushdown off and with the decoded-blob cache off, and again when the
// cache serves it.
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
			vals := []float64{float64(i%11) * 0.25, float64(i%7) - 2, float64(i) * 0.5, float64(src*100 + int64(i))}
			if i%5 == 0 {
				vals[2] = model.NullValue
			}
			if i%9 == 0 {
				vals[1] = model.NullValue
			}
			if err := e.ts.Write(model.Point{Source: src, TS: 1_000_000 + int64(i)*50 + src, Values: vals}); err != nil {
				t.Fatal(err)
			}
		}
		for src := int64(1); src <= 6; src++ {
			if _, err := e.cat.RegisterSource(model.DataSource{ID: src, SchemaID: schema.ID, IntervalMs: 50}); err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, fmt.Sprintf(`INSERT INTO SITE VALUES (%d, 'site_%d')`, src, src))
			for i := range 64 {
				write(src, i)
			}
		}
		if err := e.ts.Flush(); err != nil {
			t.Fatal(err)
		}
		for src := int64(1); src <= 6; src++ {
			for i := 64; i < 69; i++ {
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
}
