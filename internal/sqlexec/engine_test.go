package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"odh/internal/catalog"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/relational"
	"odh/internal/tsstore"
)

// newEngine builds an empty engine over an in-memory page store.
func newEngine(t testing.TB) *Engine {
	t.Helper()
	return newEngineWith(t, tsstore.Config{BatchSize: 16})
}

func newEngineWith(t testing.TB, cfg tsstore.Config) *Engine {
	t.Helper()
	page, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 16384})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { page.Close() })
	cat, err := catalog.Open(page, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tsstore.Open(page, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relational.Open(page, relational.ProfileRDB)
	if err != nil {
		t.Fatal(err)
	}
	return New(rel, ts)
}

// tdFixture loads a miniature TD dataset: virtual TRADE plus relational
// ACCOUNT and CUSTOMER, mirroring the paper's simplified TPC-E schema.
func tdFixture(t testing.TB, e *Engine) (accounts []int64) {
	t.Helper()
	return tdFixtureOf(t, e, nil)
}

// tdFixtureOf is tdFixture writing the trades of the accounts keep accepts
// only (nil keeps all): every engine gets the same relational tables and
// sources, and the engines of a partition hold disjoint trades whose union
// is tdFixture's.
func tdFixtureOf(t testing.TB, e *Engine, keep func(acct int64) bool) (accounts []int64) {
	t.Helper()
	cat := e.cat
	schema, err := cat.CreateSchema(model.SchemaType{
		Name:   "trade",
		IDName: "T_CA_ID",
		TSName: "T_DTS",
		Tags: []model.TagDef{
			{Name: "T_TRADE_PRICE"}, {Name: "T_CHRG"}, {Name: "T_COMM"}, {Name: "T_TAX"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateVirtualTable("TRADE", schema.ID); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE ACCOUNT (CA_ID BIGINT, CA_C_ID BIGINT, CA_NAME VARCHAR(32), CA_BAL DOUBLE)`)
	mustExec(t, e, `CREATE INDEX acct_by_id ON ACCOUNT (CA_ID)`)
	mustExec(t, e, `CREATE INDEX acct_by_name ON ACCOUNT (CA_NAME)`)
	mustExec(t, e, `CREATE TABLE CUSTOMER (C_ID BIGINT, C_L_NAME VARCHAR(32), C_F_NAME VARCHAR(32), C_TIER INT, C_DOB TIMESTAMP)`)
	mustExec(t, e, `CREATE INDEX cust_by_id ON CUSTOMER (C_ID)`)

	// 10 accounts over 2 customers; 50 trades each at ~20 Hz.
	rng := rand.New(rand.NewSource(77))
	for acct := int64(1); acct <= 10; acct++ {
		ds, err := cat.RegisterSource(model.DataSource{
			ID: acct, SchemaID: schema.ID, Regular: false, IntervalMs: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		accounts = append(accounts, ds.ID)
		custID := (acct-1)/5 + 1
		mustExec(t, e, fmt.Sprintf(
			`INSERT INTO ACCOUNT VALUES (%d, %d, 'acct_%d', %f)`, acct, custID, acct, float64(acct)*100))
		ts := int64(1000000)
		for i := 0; i < 50; i++ {
			ts += int64(40 + rng.Intn(20))
			if keep != nil && !keep(acct) {
				continue
			}
			if err := e.ts.Write(model.Point{
				Source: acct, TS: ts,
				Values: []float64{100 + float64(i), 0.5, 0.25, 0.1},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustExec(t, e, `INSERT INTO CUSTOMER VALUES (1, 'Smith', 'Al', 1, '1980-01-01'), (2, 'Jones', 'Bo', 2, '1990-06-15')`)
	if err := e.ts.Flush(); err != nil {
		t.Fatal(err)
	}
	return accounts
}

// ldFixture loads a miniature LD dataset: virtual Observation (sparse
// weather schema subset) plus relational LinkedSensor.
func ldFixture(t testing.TB, e *Engine) (sensors []int64) {
	t.Helper()
	return ldFixtureOf(t, e, nil)
}

// ldFixtureOf is ldFixture writing the observations of the sensors keep
// accepts only (nil keeps all), like tdFixtureOf.
func ldFixtureOf(t testing.TB, e *Engine, keep func(sensor int64) bool) (sensors []int64) {
	t.Helper()
	cat := e.cat
	schema, err := cat.CreateSchema(model.SchemaType{
		Name:   "observation",
		IDName: "SensorId",
		TSName: "Timestamp",
		Tags: []model.TagDef{
			{Name: "AirTemperature"}, {Name: "WindSpeed"}, {Name: "RelativeHumidity"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateVirtualTable("Observation", schema.ID); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE LinkedSensor (SensorId BIGINT, SensorName VARCHAR(16), Latitude DOUBLE, Longitude DOUBLE)`)
	mustExec(t, e, `CREATE INDEX sensor_by_name ON LinkedSensor (SensorName)`)
	mustExec(t, e, `CREATE INDEX sensor_by_lat ON LinkedSensor (Latitude)`)
	mustExec(t, e, `CREATE INDEX sensor_by_lon ON LinkedSensor (Longitude)`)

	// 16 low-frequency sensors (~23 min interval -> MG), clustered in two
	// geographic areas.
	for i := int64(1); i <= 16; i++ {
		ds, err := cat.RegisterSource(model.DataSource{
			ID: 1000 + i, SchemaID: schema.ID, Regular: false, IntervalMs: 1380000,
		})
		if err != nil {
			t.Fatal(err)
		}
		sensors = append(sensors, ds.ID)
		lat, lon := 36.8+float64(i)*0.001, -115.98+float64(i)*0.001
		if i > 8 {
			lat, lon = 40.0+float64(i)*0.001, -100.0+float64(i)*0.001
		}
		mustExec(t, e, fmt.Sprintf(
			`INSERT INTO LinkedSensor VALUES (%d, 'S%02d', %f, %f)`, ds.ID, i, lat, lon))
	}
	// 12 rounds of observations; each sensor reports a sparse subset.
	for round := 0; round < 12; round++ {
		ts := int64(2000000 + round*1380000)
		for i, src := range sensors {
			if keep != nil && !keep(src) {
				continue
			}
			vals := []float64{model.NullValue, model.NullValue, model.NullValue}
			vals[0] = 15 + float64(round) // AirTemperature always present
			if i%2 == 0 {
				vals[1] = float64(i)
			}
			if err := e.ts.Write(model.Point{Source: src, TS: ts, Values: vals}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.ts.Flush(); err != nil {
		t.Fatal(err)
	}
	return sensors
}

func mustExec(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func fetchAll(t testing.TB, e *Engine, sql string) ([]Row, *Result) {
	t.Helper()
	res := mustExec(t, e, sql)
	rows, err := res.FetchAll()
	if err != nil {
		t.Fatalf("FetchAll(%q): %v", sql, err)
	}
	return rows, res
}

func TestTQ1HistoricalQuery(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, res := fetchAll(t, e, `SELECT * FROM TRADE WHERE T_CA_ID = 3`)
	if len(rows) != 50 {
		t.Fatalf("TQ1 returned %d rows, want 50", len(rows))
	}
	for _, r := range rows {
		if r[0].AsInt() != 3 {
			t.Fatalf("wrong account: %v", r[0])
		}
	}
	if len(res.Columns) != 6 { // id, ts, 4 tags
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.BlobBytes() == 0 {
		t.Fatal("no blob bytes accounted")
	}
	// Historical plan must not scan other sources.
	plan, err := e.Plan(`SELECT * FROM TRADE WHERE T_CA_ID = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "VirtualHistoricalScan") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestTQ2SliceQuery(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	// All trades fall in [1000000, 1003500]; slice a sub-window.
	rows, _ := fetchAll(t, e, `SELECT * FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1001500`)
	if len(rows) == 0 || len(rows) >= 500 {
		t.Fatalf("TQ2 returned %d rows", len(rows))
	}
	for _, r := range rows {
		ts := r[1].AsInt()
		if ts < 1000500 || ts > 1001500 {
			t.Fatalf("row outside window: %d", ts)
		}
	}
	plan, _ := e.Plan(`SELECT * FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1001500`)
	if !strings.Contains(plan, "VirtualSliceScan") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestTQ3FusedSingleSource(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_7'`)
	if len(rows) != 50 {
		t.Fatalf("TQ3 returned %d rows, want 50", len(rows))
	}
	for _, r := range rows {
		if r[1].AsFloat() != 0.5 {
			t.Fatalf("wrong T_CHRG: %v", r[1])
		}
	}
	// Single selective account: the optimizer must drive from the
	// relational side.
	plan, _ := e.Plan(`SELECT T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_7'`)
	if !strings.Contains(plan, "relational-first") {
		t.Fatalf("plan:\n%s", plan)
	}
}

func TestTQ4ThreeWayFusion(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a, CUSTOMER c
		WHERE a.CA_ID = t.T_CA_ID AND a.CA_C_ID = c.C_ID AND C_DOB BETWEEN '1975-01-01' AND '1985-01-01'`)
	// Customer 1 (dob 1980) owns accounts 1..5: 5 accounts x 50 trades.
	if len(rows) != 250 {
		t.Fatalf("TQ4 returned %d rows, want 250", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r[0].S] = true
	}
	for acct := 1; acct <= 5; acct++ {
		if !names[fmt.Sprintf("acct_%d", acct)] {
			t.Fatalf("missing account %d in %v", acct, names)
		}
	}
	if names["acct_6"] {
		t.Fatal("customer filter leaked account 6")
	}
}

func TestLQ1HistoricalLowFrequency(t *testing.T) {
	e := newEngine(t)
	sensors := ldFixture(t, e)
	rows, _ := fetchAll(t, e, fmt.Sprintf(`SELECT * FROM Observation WHERE SensorId = %d`, sensors[4]))
	if len(rows) != 12 {
		t.Fatalf("LQ1 returned %d rows, want 12", len(rows))
	}
}

func TestLQ2SliceProjection(t *testing.T) {
	e := newEngine(t)
	ldFixture(t, e)
	rows, res := fetchAll(t, e, `SELECT Timestamp, SensorId, AirTemperature FROM Observation WHERE Timestamp BETWEEN 2000000 AND 3380000`)
	// Rounds 0 and 1 inclusive: 2 x 16 sensors.
	if len(rows) != 32 {
		t.Fatalf("LQ2 returned %d rows, want 32", len(rows))
	}
	if res.Columns[2] != "AirTemperature" {
		t.Fatalf("columns: %v", res.Columns)
	}
	for _, r := range rows {
		if r[2].IsNull() {
			t.Fatal("AirTemperature must be present for every row")
		}
	}
}

func TestLQ3FusedByName(t *testing.T) {
	e := newEngine(t)
	ldFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l
		WHERE l.SensorId = o.SensorId AND SensorName = 'S03'`)
	if len(rows) != 12 {
		t.Fatalf("LQ3 returned %d rows, want 12", len(rows))
	}
}

func TestLQ4GeographicFusion(t *testing.T) {
	e := newEngine(t)
	ldFixture(t, e)
	// Area covering sensors 1..8 (lat 36.80x).
	sql := `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l
		WHERE l.SensorId = o.SensorId AND Latitude < 37.0 AND Latitude > 36.0 AND Longitude < -115.0 AND Longitude > -116.0`
	rows, _ := fetchAll(t, e, sql)
	if len(rows) != 8*12 {
		t.Fatalf("LQ4 returned %d rows, want 96", len(rows))
	}
}

func TestOptimizerLQ4PlanChoice(t *testing.T) {
	e := newEngine(t)
	ldFixture(t, e)
	// Tiny box: one sensor -> relational-first (paper §5.3 plan study).
	small := `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l
		WHERE l.SensorId = o.SensorId AND Latitude < 36.8015 AND Latitude > 36.8005 AND Longitude < -115.0 AND Longitude > -116.0`
	planSmall, err := e.Plan(small)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planSmall, "relational-first") {
		t.Fatalf("small-area plan:\n%s", planSmall)
	}
	// Huge box: every sensor -> operational-first.
	big := `SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l
		WHERE l.SensorId = o.SensorId AND Latitude < 80.0 AND Latitude > 10.0 AND Longitude < -50.0 AND Longitude > -150.0`
	planBig, err := e.Plan(big)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planBig, "operational-first") {
		t.Fatalf("large-area plan:\n%s", planBig)
	}
	// Both plans must return identical results.
	rowsSmall, _ := fetchAll(t, e, small)
	if len(rowsSmall) != 12 {
		t.Fatalf("small area rows = %d, want 12", len(rowsSmall))
	}
	rowsBig, _ := fetchAll(t, e, big)
	if len(rowsBig) != 16*12 {
		t.Fatalf("big area rows = %d, want 192", len(rowsBig))
	}
}

func TestTimestampStringLiterals(t *testing.T) {
	e := newEngine(t)
	cat := e.cat
	schema, _ := cat.CreateSchema(model.SchemaType{Name: "env", Tags: []model.TagDef{{Name: "temperature"}, {Name: "wind"}}})
	cat.CreateVirtualTable("environ_data_v", schema.ID)
	mustExec(t, e, `CREATE TABLE sensor_info (id BIGINT, area VARCHAR(8))`)
	base, ok := ParseTimestamp("2013-11-18 00:00:00")
	if !ok {
		t.Fatal("ParseTimestamp")
	}
	for i := int64(1); i <= 4; i++ {
		cat.RegisterSource(model.DataSource{ID: i, SchemaID: schema.ID, Regular: true, IntervalMs: 60000})
		area := "S1"
		if i > 2 {
			area = "S2"
		}
		mustExec(t, e, fmt.Sprintf(`INSERT INTO sensor_info VALUES (%d, '%s')`, i, area))
		for j := 0; j < 30; j++ {
			e.ts.Write(model.Point{Source: i, TS: base + int64(j)*60000, Values: []float64{20, 3}})
		}
	}
	e.ts.Flush()
	// The paper's §3 example query, verbatim shape.
	rows, _ := fetchAll(t, e, `SELECT timestamp, temperature, wind FROM environ_data_v a, sensor_info b
		WHERE a.id = b.id AND b.area = 'S1'
		AND timestamp BETWEEN '2013-11-18 00:00:00' AND '2013-11-18 00:10:00'`)
	if len(rows) != 2*11 {
		t.Fatalf("returned %d rows, want 22", len(rows))
	}
	for _, r := range rows {
		if r[1].AsFloat() != 20 || r[2].AsFloat() != 3 {
			t.Fatalf("row: %v", r)
		}
	}
}

func TestAggregates(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT COUNT(*), AVG(T_TRADE_PRICE), MIN(T_TRADE_PRICE), MAX(T_TRADE_PRICE), SUM(T_CHRG) FROM TRADE WHERE T_CA_ID = 1`)
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r[0].AsInt() != 50 {
		t.Fatalf("COUNT = %v", r[0])
	}
	if r[2].AsFloat() != 100 || r[3].AsFloat() != 149 {
		t.Fatalf("MIN/MAX = %v/%v", r[2], r[3])
	}
	if math.Abs(r[4].AsFloat()-25) > 1e-9 {
		t.Fatalf("SUM = %v", r[4])
	}
	if math.Abs(r[1].AsFloat()-124.5) > 1e-9 {
		t.Fatalf("AVG = %v", r[1])
	}
}

func TestGroupBy(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT T_CA_ID, COUNT(*) FROM TRADE GROUP BY T_CA_ID ORDER BY T_CA_ID`)
	if len(rows) != 10 {
		t.Fatalf("%d groups, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i+1) || r[1].AsInt() != 50 {
			t.Fatalf("group %d: %v", i, r)
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_CA_ID = 2 ORDER BY T_TRADE_PRICE DESC LIMIT 5`)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	prev := math.Inf(1)
	for _, r := range rows {
		if r[1].AsFloat() > prev {
			t.Fatal("not descending")
		}
		prev = r[1].AsFloat()
	}
	if rows[0][1].AsFloat() != 149 {
		t.Fatalf("top price = %v", rows[0][1])
	}
}

func TestDirtyReadSeesBufferedPoints(t *testing.T) {
	e := newEngine(t)
	accounts := tdFixture(t, e)
	// Write points that stay in the ingest buffer (no flush).
	for i := 0; i < 5; i++ {
		e.ts.Write(model.Point{Source: accounts[0], TS: int64(2000000 + i*50), Values: []float64{999, 0, 0, 0}})
	}
	rows, _ := fetchAll(t, e, `SELECT * FROM TRADE WHERE T_CA_ID = 1 AND T_DTS >= 2000000`)
	if len(rows) != 5 {
		t.Fatalf("dirty read returned %d rows, want 5", len(rows))
	}
}

func TestArithmeticProjection(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	rows, _ := fetchAll(t, e, `SELECT T_TRADE_PRICE * 2 AS dbl FROM TRADE WHERE T_CA_ID = 1 LIMIT 1`)
	if rows[0][0].AsFloat() != 200 {
		t.Fatalf("computed column = %v", rows[0][0])
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := newEngine(t)
	ldFixture(t, e)
	// WindSpeed is NULL for odd sensors; NULL comparisons must not match.
	rows, _ := fetchAll(t, e, `SELECT SensorId, WindSpeed FROM Observation WHERE WindSpeed >= 0`)
	for _, r := range rows {
		if r[1].IsNull() {
			t.Fatal("NULL passed a comparison filter")
		}
	}
	rowsNull, _ := fetchAll(t, e, `SELECT SensorId FROM Observation WHERE WindSpeed IS NULL`)
	if len(rowsNull) != 8*12 {
		t.Fatalf("IS NULL returned %d rows, want 96", len(rowsNull))
	}
}

func TestSQLDDLAndInsertRoundtrip(t *testing.T) {
	e := newEngine(t)
	mustExec(t, e, `CREATE TABLE t (a BIGINT, b VARCHAR(8), c TIMESTAMP)`)
	res := mustExec(t, e, `INSERT INTO t VALUES (1, 'x', '2020-01-01 00:00:00'), (2, 'y', '2021-01-01 00:00:00')`)
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	rows, _ := fetchAll(t, e, `SELECT * FROM t WHERE c >= '2020-06-01 00:00:00'`)
	if len(rows) != 1 || rows[0][1].S != "y" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestCreateVirtualTableSQL(t *testing.T) {
	e := newEngine(t)
	e.cat.CreateSchemaType("env", []model.TagDef{{Name: "temp"}})
	mustExec(t, e, `CREATE VIRTUAL TABLE env_v SCHEMA env`)
	if _, ok := e.cat.VirtualTable("env_v"); !ok {
		t.Fatal("virtual table not registered")
	}
	if _, err := e.Query(`CREATE VIRTUAL TABLE bad_v SCHEMA missing`); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestErrorCases(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	for _, sql := range []string{
		`SELECT * FROM missing_table`,
		`SELECT nope FROM TRADE`,
		`SELECT * FROM TRADE x, TRADE y WHERE x.T_CA_ID = y.T_CA_ID`, // two virtual tables
		`SELECT * FROM TRADE, CUSTOMER`,                              // no join predicate
		`SELECT T_CA_ID, COUNT(*) FROM TRADE`,                        // non-grouped column
	} {
		res, err := e.Query(sql)
		if err == nil {
			if _, err = res.FetchAll(); err == nil {
				t.Fatalf("Query(%q) succeeded", sql)
			}
		}
	}
}

func TestExplainOutput(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	res := mustExec(t, e, `EXPLAIN SELECT * FROM TRADE WHERE T_CA_ID = 1`)
	if !strings.Contains(res.PlanText, "VirtualHistoricalScan") {
		t.Fatalf("explain:\n%s", res.PlanText)
	}
}

func TestDataPointAccounting(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	_, res := fetchAll(t, e, `SELECT T_TRADE_PRICE, T_CHRG FROM TRADE WHERE T_CA_ID = 1`)
	if res.RowCount != 50 {
		t.Fatalf("RowCount = %d", res.RowCount)
	}
	if res.DataPoints != 100 { // 2 non-null values per row
		t.Fatalf("DataPoints = %d", res.DataPoints)
	}
}
