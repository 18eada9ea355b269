package sqlexec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"odh/internal/model"
	"odh/internal/relational"
)

// relFixture creates a small relational-only database for operator edge
// cases.
func relFixture(t testing.TB, e *Engine) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE items (id BIGINT, grp VARCHAR(4), price DOUBLE)`)
	mustExec(t, e, `CREATE TABLE grps (grp VARCHAR(4), label VARCHAR(16))`)
	rows := []string{
		`(1, 'a', 10.0)`, `(2, 'a', 20.0)`, `(3, 'b', 30.0)`,
		`(4, NULL, 40.0)`, `(5, 'c', NULL)`,
	}
	for _, r := range rows {
		mustExec(t, e, `INSERT INTO items VALUES `+r)
	}
	mustExec(t, e, `INSERT INTO grps VALUES ('a', 'alpha'), ('b', 'beta'), ('d', 'delta')`)
}

func TestHashJoinSkipsNullKeys(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT id, label FROM items i, grps g WHERE i.grp = g.grp ORDER BY id`)
	// Items 1,2 (alpha) and 3 (beta); item 4 has NULL grp and must not
	// match anything; item 5's 'c' has no group row.
	if len(rows) != 3 {
		t.Fatalf("join returned %d rows: %v", len(rows), rows)
	}
	if rows[0][0].AsInt() != 1 || rows[2][1].S != "beta" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT id, price * 2, price / 0 FROM items ORDER BY id`)
	// price NULL (item 5) -> NULL product; division by zero -> NULL.
	if !rows[4][1].IsNull() {
		t.Fatalf("NULL * 2 = %v", rows[4][1])
	}
	for _, r := range rows {
		if !r[2].IsNull() {
			t.Fatalf("x / 0 = %v, want NULL", r[2])
		}
	}
	if rows[0][1].AsFloat() != 20 {
		t.Fatalf("10 * 2 = %v", rows[0][1])
	}
}

func TestComparisonWithNullIsUnknown(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	// NULL price fails both predicates; NOT(unknown) is still not true.
	rows, _ := fetchAll(t, e, `SELECT id FROM items WHERE price > 0`)
	if len(rows) != 4 {
		t.Fatalf("price > 0 matched %d", len(rows))
	}
	rows, _ = fetchAll(t, e, `SELECT id FROM items WHERE NOT price > 0`)
	if len(rows) != 0 {
		t.Fatalf("NOT price > 0 matched %d", len(rows))
	}
}

func TestInListAndOr(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT id FROM items WHERE id IN (1, 3, 99) OR price = 40.0 ORDER BY id`)
	if len(rows) != 3 || rows[0][0].AsInt() != 1 || rows[1][0].AsInt() != 3 || rows[2][0].AsInt() != 4 {
		t.Fatalf("rows: %v", rows)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT COUNT(*), SUM(price), AVG(price), MIN(price) FROM items WHERE id > 100`)
	if len(rows) != 1 {
		t.Fatalf("grand total must emit one row, got %d", len(rows))
	}
	r := rows[0]
	if r[0].AsInt() != 0 || !r[1].IsNull() || !r[2].IsNull() || !r[3].IsNull() {
		t.Fatalf("empty aggregates: %v", r)
	}
	// GROUP BY over empty input emits no rows.
	rows, _ = fetchAll(t, e, `SELECT grp, COUNT(*) FROM items WHERE id > 100 GROUP BY grp`)
	if len(rows) != 0 {
		t.Fatalf("grouped empty input: %v", rows)
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT COUNT(*), COUNT(price), AVG(price) FROM items`)
	r := rows[0]
	if r[0].AsInt() != 5 || r[1].AsInt() != 4 {
		t.Fatalf("COUNT(*)=%v COUNT(price)=%v", r[0], r[1])
	}
	if r[2].AsFloat() != 25 { // (10+20+30+40)/4
		t.Fatalf("AVG = %v", r[2])
	}
}

func TestLimitZeroAndBeyond(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT id FROM items LIMIT 0`)
	if len(rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d", len(rows))
	}
	rows, _ = fetchAll(t, e, `SELECT id FROM items LIMIT 100`)
	if len(rows) != 5 {
		t.Fatalf("LIMIT 100 returned %d", len(rows))
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT grp, id FROM items ORDER BY grp DESC, id ASC`)
	// NULL group sorts first overall, so DESC puts it last.
	if rows[len(rows)-1][0].Kind != relational.KindNull {
		t.Fatalf("NULL not last under DESC: %v", rows)
	}
	if rows[0][0].S != "c" {
		t.Fatalf("first group: %v", rows[0])
	}
}

func TestSelectExpressionNaming(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	res := mustExec(t, e, `SELECT price + 1, price * 2 AS dbl FROM items LIMIT 1`)
	if res.Columns[0] != "(price + 1)" || res.Columns[1] != "dbl" {
		t.Fatalf("columns: %v", res.Columns)
	}
	res.FetchAll()
}

func TestAmbiguousColumnRejected(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	// "grp" exists in both tables; unqualified use in a join must error.
	if _, err := e.Query(`SELECT grp FROM items i, grps g WHERE i.grp = g.grp`); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	// An unresolved column before a resolved one still fails its
	// conjunct; it must not be pushed to the resolved column's table.
	for _, q := range []string{
		`SELECT i.id FROM items i, grps g WHERE grp = g.grp`,
		`SELECT i.id FROM items i, grps g WHERE zzz = g.grp`,
		`SELECT i.id FROM items i, grps g WHERE i.grp = g.grp AND grp = g.grp`,
		`SELECT i.id FROM items i, grps g WHERE i.grp = g.grp AND zzz = g.grp`,
	} {
		_, err := e.Query(q)
		if err == nil || !strings.Contains(err.Error(), "cannot resolve columns") {
			t.Fatalf("%s: err = %v", q, err)
		}
	}
	// Qualified use works.
	rows, _ := fetchAll(t, e, `SELECT i.grp FROM items i, grps g WHERE i.grp = g.grp`)
	if len(rows) != 3 {
		t.Fatalf("qualified join: %d rows", len(rows))
	}
}

func TestZoneMapPushdownAtSQLLevel(t *testing.T) {
	e := newEngine(t)
	cat := e.cat
	schema, _ := cat.CreateSchemaType("zm", []model.TagDef{{Name: "v"}, {Name: "w"}})
	cat.CreateVirtualTable("zm_v", schema.ID)
	ds, _ := cat.RegisterSource(model.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	for i := 0; i < 160; i++ {
		e.ts.Write(model.Point{Source: ds.ID, TS: int64(i * 10),
			Values: []float64{float64(i), float64(i % 3)}})
	}
	e.ts.Flush()
	// Batch size 16 -> 10 batches; values 100..119 live in batches 6-7.
	rows, res := fetchAll(t, e, fmt.Sprintf(`SELECT v FROM zm_v WHERE id = %d AND v BETWEEN 100 AND 119`, ds.ID))
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The scan must have decoded only the overlapping blobs: blob bytes
	// read is well below the full history.
	full, fullRes := fetchAll(t, e, fmt.Sprintf(`SELECT v FROM zm_v WHERE id = %d`, ds.ID))
	if len(full) != 160 {
		t.Fatalf("full = %d", len(full))
	}
	if res.BlobBytes()*3 > fullRes.BlobBytes() {
		t.Fatalf("zone maps did not reduce blob reads: %d vs %d", res.BlobBytes(), fullRes.BlobBytes())
	}
}

func TestVirtualAggregateOverSlice(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT COUNT(*) FROM TRADE`)
	if rows[0][0].AsInt() != 500 {
		t.Fatalf("COUNT(*) = %v", rows[0][0])
	}
}

func TestExplainFusedPlansNameBothCosts(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	plan, err := e.Plan(`SELECT T_DTS FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_3'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "cost=") || !strings.Contains(plan, "alternative") {
		t.Fatalf("plan lacks cost annotations:\n%s", plan)
	}
}

func TestTimeBucketDownsampling(t *testing.T) {
	e := newEngine(t)
	cat := e.cat
	schema, _ := cat.CreateSchemaType("ts", []model.TagDef{{Name: "v"}})
	cat.CreateVirtualTable("ts_v", schema.ID)
	ds, _ := cat.RegisterSource(model.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 100})
	// 10 Hz for 60 s: 600 points; bucket to 10 s -> 6 buckets of 100.
	for i := 0; i < 600; i++ {
		e.ts.Write(model.Point{Source: ds.ID, TS: int64(i * 100), Values: []float64{float64(i)}})
	}
	e.ts.Flush()
	rows, _ := fetchAll(t, e, `SELECT time_bucket(10000, timestamp) AS bucket, COUNT(*), AVG(v)
		FROM ts_v GROUP BY time_bucket(10000, timestamp) ORDER BY bucket`)
	if len(rows) != 6 {
		t.Fatalf("buckets = %d, want 6", len(rows))
	}
	for b, r := range rows {
		if r[0].AsInt() != int64(b*10000) {
			t.Fatalf("bucket %d start = %v", b, r[0])
		}
		if r[1].AsInt() != 100 {
			t.Fatalf("bucket %d count = %v", b, r[1])
		}
		wantAvg := float64(b*100) + 49.5
		if r[2].AsFloat() != wantAvg {
			t.Fatalf("bucket %d avg = %v, want %v", b, r[2], wantAvg)
		}
	}
}

func TestScalarFunctions(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT ABS(0 - price), FLOOR(price / 3), CEIL(price / 3), ROUND(price / 3) FROM items WHERE id = 1`)
	r := rows[0]
	if r[0].AsFloat() != 10 || r[1].AsFloat() != 3 || r[2].AsFloat() != 4 || r[3].AsFloat() != 3 {
		t.Fatalf("scalar funcs: %v", r)
	}
	if _, err := e.Query(`SELECT NOPE(price) FROM items`); err == nil {
		t.Fatal("unknown function accepted")
	}
	if _, err := e.Query(`SELECT ABS(price, price) FROM items`); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestIDInListPushdown(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	sql := `SELECT * FROM TRADE WHERE T_CA_ID IN (2, 5, 9)`
	plan, err := e.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "VirtualMultiScan") || !strings.Contains(plan, "3 ids") {
		t.Fatalf("IN list not pushed down:\n%s", plan)
	}
	rows, _ := fetchAll(t, e, sql)
	if len(rows) != 150 {
		t.Fatalf("rows = %d, want 150", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[r[0].AsInt()] = true
	}
	if len(seen) != 3 || !seen[2] || !seen[5] || !seen[9] {
		t.Fatalf("sources: %v", seen)
	}
	// Unknown ids contribute nothing but do not fail.
	rows, _ = fetchAll(t, e, `SELECT * FROM TRADE WHERE T_CA_ID IN (2, 9999)`)
	if len(rows) != 50 {
		t.Fatalf("rows with unknown id = %d", len(rows))
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	e := newEngine(t)
	relFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT grp, COUNT(*) FROM items GROUP BY grp HAVING COUNT(*) > 1`)
	if len(rows) != 1 || rows[0][0].S != "a" || rows[0][1].AsInt() != 2 {
		t.Fatalf("HAVING rows: %v", rows)
	}
	// HAVING with alias.
	rows, _ = fetchAll(t, e, `SELECT grp, COUNT(*) AS n FROM items GROUP BY grp HAVING n >= 1 ORDER BY n DESC, grp`)
	if len(rows) != 4 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][0].S != "a" { // group 'a' has the highest count
		t.Fatalf("ORDER BY aggregate: %v", rows)
	}
	if _, err := e.Query(`SELECT id FROM items HAVING id > 1`); err == nil {
		t.Fatal("HAVING without aggregation accepted")
	}

	// An aggregate under IS NULL, IN or a scalar call resolves against the
	// aggregate's output in HAVING and ORDER BY, over a virtual table and a
	// relational one alike, and answers like the pushdown-off plan. Source
	// 1 has 10 rows (MIN -5), source 2 has 11 (MIN 2), source 3 has 12, all
	// NULL.
	e = newEngine(t)
	schema, err := e.cat.CreateSchema(model.SchemaType{Name: "e", IDName: "id", TSName: "ts", Tags: []model.TagDef{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cat.CreateVirtualTable("e_v", schema.ID); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE e_r (id BIGINT, ts BIGINT, a DOUBLE)`)
	for id := int64(1); id <= 3; id++ {
		if _, err := e.cat.RegisterSource(model.DataSource{ID: id, SchemaID: schema.ID, IntervalMs: 10}); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 9+id; i++ {
			a, lit := math.NaN(), "NULL"
			if id < 3 {
				a = float64(i + 7*id - 12)
				lit = fmt.Sprint(a)
			}
			if err := e.ts.Write(model.Point{Source: id, TS: 1000 + 10*i, Values: []float64{a}}); err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, fmt.Sprintf(`INSERT INTO e_r VALUES (%d, %d, %s)`, id, 1000+10*i, lit))
		}
	}
	if err := e.ts.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"e_v", "e_r"} {
		for _, c := range []struct {
			tail string
			ids  []int64 // in order when the query orders
		}{
			{`HAVING MIN(a) IS NOT NULL`, []int64{1, 2}},
			{`HAVING COUNT(*) IN (10, 11)`, []int64{1, 2}},
			{`HAVING ABS(MIN(a)) >= 0`, []int64{1, 2}},
			{`ORDER BY ABS(MIN(a))`, []int64{3, 2, 1}},
		} {
			sql := `SELECT id, MIN(a), COUNT(*) FROM ` + table + ` GROUP BY id ` + c.tail
			runBoth(t, e, sql)
			for _, pushdown := range []bool{true, false} {
				e.SetAggPushdown(pushdown)
				rows, _ := fetchAll(t, e, sql)
				var ids []int64
				for _, r := range rows {
					ids = append(ids, r[0].AsInt())
				}
				if !strings.HasPrefix(c.tail, "ORDER") {
					slices.Sort(ids)
				}
				if !slices.Equal(ids, c.ids) {
					t.Errorf("%s (pushdown %v): ids %v, want %v", sql, pushdown, ids, c.ids)
				}
			}
			e.SetAggPushdown(true)
		}
	}
}

func TestOrderByAggregateExpression(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT T_CA_ID, AVG(T_TRADE_PRICE) FROM TRADE GROUP BY T_CA_ID ORDER BY AVG(T_TRADE_PRICE) DESC LIMIT 3`)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0][1].AsFloat() < rows[2][1].AsFloat() {
		t.Fatal("not descending by aggregate")
	}
}

// TestIndexRangeKeepsHugeDoubles: an index range scan over a DOUBLE column
// returns the values at and beyond 2^63 that the filter over the whole
// table returns; they once keyed below every other value.
func TestIndexRangeKeepsHugeDoubles(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE TABLE t (id BIGINT, x DOUBLE)`)
	mustExec(t, e, `CREATE INDEX t_x ON t (x)`)
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d.25)", i, i%5))
	}
	mustExec(t, e, `INSERT INTO t VALUES `+strings.Join(vals, ", "))
	mustExec(t, e, `INSERT INTO t VALUES (2000, 1e300), (2001, 20.5), (2002, 9223372036854775808.0)`)
	for _, c := range []struct{ indexed, scanned string }{
		{`x >= 10`, `x + 0 >= 10`},
		{`x BETWEEN 10 AND 1e301`, `x + 0 BETWEEN 10 AND 1e301`},
	} {
		sql := `SELECT id FROM t WHERE ` + c.indexed + ` ORDER BY id`
		if plan := planFor(t, e, sql); !strings.Contains(plan, "IndexScan(t.t_x") {
			t.Fatalf("%s does not use the index:\n%s", sql, plan)
		}
		got, _ := fetchAll(t, e, sql)
		want, _ := fetchAll(t, e, `SELECT id FROM t WHERE `+c.scanned+` ORDER BY id`)
		if len(want) != 3 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %v, the full scan %v", c.indexed, got, want)
		}
	}
}
