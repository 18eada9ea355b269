package sqlexec

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"odh/internal/model"
)

// updateGolden rewrites testdata/explain.golden from the current planner.
// The committed file was captured at the commit before the planner analysed
// a query in one pass; regenerate it only for a deliberate plan change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/explain.golden")

const explainGoldenPath = "testdata/explain.golden"

// bigFixture loads one schema whose store is large enough for the planner
// to fan an aggregate out: 4 sources x 20000 incompressible points.
func bigFixture(t testing.TB, e *Engine) {
	t.Helper()
	schema, err := e.cat.CreateSchemaType("big", []model.TagDef{{Name: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cat.CreateVirtualTable("big_v", schema.ID); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for id := int64(501); id <= 504; id++ {
		if _, err := e.cat.RegisterSource(model.DataSource{ID: id, SchemaID: schema.ID, Regular: true, IntervalMs: 100}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			if err := e.ts.Write(model.Point{Source: id, TS: int64(i) * 100, Values: []float64{rng.Float64()}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.ts.Flush(); err != nil {
		t.Fatal(err)
	}
}

// partsFixture loads a relational table large enough for an index to beat
// the sequential scan.
func partsFixture(t testing.TB, e *Engine) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE parts (p_id BIGINT, p_grp BIGINT, p_w DOUBLE)`)
	mustExec(t, e, `CREATE INDEX parts_by_id ON parts (p_id)`)
	mustExec(t, e, `CREATE INDEX parts_by_grp ON parts (p_grp)`)
	for base := 0; base < 3000; base += 500 {
		rows := make([]string, 500)
		for i := range rows {
			id := base + i
			rows[i] = fmt.Sprintf("(%d, %d, %d.5)", id, id%40, id%7)
		}
		mustExec(t, e, `INSERT INTO parts VALUES `+strings.Join(rows, ", "))
	}
}

// TestExplainGolden pins Engine.Plan text — plan choice, operator tree and
// the est-decoded / plan=... cost= tokens the benchmark ladder parses — for
// the twelve harness template shapes (SQL copied from bench/queries.go with
// this package's fixture parameters), the TQ/LQ plan-choice cases of the
// engine tests, and shapes the aggregate pushdown must decline.
func TestExplainGolden(t *testing.T) {
	e := newEngine(t)
	e.SetQueryWorkers(4)
	tdFixture(t, e)
	ldFixture(t, e)
	bigFixture(t, e)
	partsFixture(t, e)

	cases := []struct{ name, sql string }{
		// bench/queries.go templates.
		{"hist", `SELECT * FROM TRADE WHERE T_CA_ID = 3 AND T_DTS BETWEEN 1000500 AND 1001500`},
		{"slice", `SELECT * FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1001500`},
		{"fused1", `SELECT T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_7'`},
		{"fusedN", `SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a, CUSTOMER c WHERE a.CA_ID = t.T_CA_ID AND a.CA_C_ID = c.C_ID AND C_DOB BETWEEN 315532800000 AND 315532800000`},
		{"agg_total", `SELECT COUNT(*), AVG(T_TRADE_PRICE), MIN(T_TRADE_PRICE), MAX(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = 3`},
		{"agg_bucket_aligned", `SELECT TIME_BUCKET(300000, T_DTS), COUNT(*), AVG(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = 3 GROUP BY TIME_BUCKET(300000, T_DTS)`},
		{"agg_bucket_unaligned", `SELECT TIME_BUCKET(7000, T_DTS), COUNT(*), AVG(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = 3 AND T_DTS BETWEEN 1000500 AND 1001500 GROUP BY TIME_BUCKET(7000, T_DTS)`},
		{"agg_group_id", `SELECT T_CA_ID, COUNT(*), MAX(T_TRADE_PRICE) FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1001500 GROUP BY T_CA_ID`},
		{"LQ1", `SELECT * FROM Observation WHERE SensorId = 1005`},
		{"LQ2", `SELECT Timestamp, SensorId, AirTemperature FROM Observation WHERE Timestamp BETWEEN 2000000 AND 3380000`},
		{"LQ3", `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND SensorName = 'S03'`},
		{"agg_recent", `SELECT TIME_BUCKET(60000, Timestamp), COUNT(*), AVG(AirTemperature) FROM Observation WHERE Timestamp BETWEEN 2000000 AND 9000000 GROUP BY TIME_BUCKET(60000, Timestamp)`},

		// Plan-choice cases of engine_test.go / edge_test.go.
		{"TQ1", `SELECT * FROM TRADE WHERE T_CA_ID = 3`},
		{"TQ4_dob_strings", `SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a, CUSTOMER c WHERE a.CA_ID = t.T_CA_ID AND a.CA_C_ID = c.C_ID AND C_DOB BETWEEN '1975-01-01' AND '1985-01-01'`},
		{"LQ4_small_box", `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND Latitude < 36.8015 AND Latitude > 36.8005 AND Longitude < -115.0 AND Longitude > -116.0`},
		{"LQ4_big_box", `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND Latitude < 80.0 AND Latitude > 10.0 AND Longitude < -50.0 AND Longitude > -150.0`},
		{"fused_time_window", `SELECT T_DTS FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_BAL > 250 AND T_DTS >= 1000500 AND 1001500 > T_DTS AND T_TRADE_PRICE > 120`},
		{"id_in_list", `SELECT * FROM TRADE WHERE T_CA_ID IN (2, 5, 9, 5)`},
		{"tag_zone_preds", `SELECT T_DTS FROM TRADE WHERE T_CA_ID = 4 AND T_TRADE_PRICE BETWEEN 110 AND 130 AND 0.25 <= T_CHRG`},
		{"order_limit", `SELECT T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_CA_ID = 2 ORDER BY T_TRADE_PRICE DESC LIMIT 5`},
		{"rel_index_range", `SELECT CA_ID FROM ACCOUNT WHERE CA_ID >= 3 AND CA_ID < 6 AND CA_BAL != 400`},
		{"rel_join", `SELECT CA_NAME, C_L_NAME FROM ACCOUNT a, CUSTOMER c WHERE a.CA_C_ID = c.C_ID AND C_TIER = 2`},
		{"rel_index_prefix", `SELECT p_w FROM parts WHERE p_id = 77`},
		{"rel_index_between", `SELECT p_w FROM parts WHERE p_id BETWEEN 100 AND 120 AND 5 > p_grp`},
		{"rel_index_open_range", `SELECT p_w FROM parts WHERE 2990 <= p_id AND p_w != 3`},
		{"rel_index_choice", `SELECT p_w FROM parts WHERE p_grp = 7 AND p_id < 1500`},
		{"agg_having_order", `SELECT T_CA_ID, COUNT(*) FROM TRADE GROUP BY T_CA_ID HAVING COUNT(*) > 10 ORDER BY T_CA_ID DESC LIMIT 4`},
		{"agg_multi_preds", `SELECT COUNT(*), SUM(T_CHRG) FROM TRADE WHERE T_CA_ID IN (2, 4, 6) AND T_TRADE_PRICE > 120 AND T_DTS < 1001800`},
		{"agg_id_and_bucket", `SELECT T_CA_ID, TIME_BUCKET(700, T_DTS), COUNT(*), AVG(T_CHRG) FROM TRADE GROUP BY T_CA_ID, TIME_BUCKET(700, T_DTS)`},
		{"agg_mg_by_id", `SELECT SensorId, COUNT(AirTemperature), COUNT(WindSpeed) FROM Observation GROUP BY SensorId`},
		{"agg_parallel", `SELECT TIME_BUCKET(7000, timestamp), COUNT(*), MAX(v) FROM big_v GROUP BY TIME_BUCKET(7000, timestamp)`},
		{"agg_parallel_one_source", `SELECT COUNT(*), MIN(v) FROM big_v WHERE id = 502 AND timestamp >= 1000 AND timestamp < 1999000`},
		{"agg_one_source_boundary", `SELECT TIME_BUCKET(700, timestamp), COUNT(*), MAX(v) FROM big_v WHERE id = 503 GROUP BY TIME_BUCKET(700, timestamp)`},
		{"agg_fused_fallback", `SELECT CA_NAME, COUNT(*) FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID GROUP BY CA_NAME`},

		// Shapes the pushdown must decline.
		{"ineligible_is_null", `SELECT COUNT(*) FROM TRADE WHERE T_TRADE_PRICE IS NULL`},
		{"ineligible_group_by_tag", `SELECT T_CHRG, COUNT(*) FROM TRADE GROUP BY T_CHRG`},
		{"ineligible_ts_aggregate", `SELECT MIN(T_DTS) FROM TRADE WHERE T_CA_ID = 3`},
	}
	var sb strings.Builder
	for _, c := range cases {
		plan, err := e.Plan(c.sql)
		if err != nil {
			t.Fatalf("Plan(%s): %v", c.name, err)
		}
		fmt.Fprintf(&sb, "== %s: %s\n%s", c.name, c.sql, plan)
	}
	got := sb.String()
	if *updateGolden {
		if err := os.WriteFile(explainGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(explainGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("plan text changed at line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
