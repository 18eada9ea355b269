package sqlexec

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/sqlparse"
	"odh/internal/tsstore"
)

// The lending contract: a row returned by Next is valid until the next
// call to Next. These tests hold every operator that keeps rows past that
// — sortOp, hashJoin's build table, FetchAll, the gather fold — to a
// reference built by copying each row as it is lent, and pin that draining
// a result allocates nothing per row beyond the scan underneath.

// drainCopies pulls every row of a Result or an Operator through Next and
// copies each one.
func drainCopies(t testing.TB, src interface{ Next() (Row, bool, error) }) []Row {
	t.Helper()
	var out []Row
	for {
		row, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, slices.Clone(row))
	}
}

func requireRows(t testing.TB, what string, got, want []Row) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: the reference is empty; the fixture does not exercise it", what)
	}
	if !reflect.DeepEqual(got, want) {
		n := min(len(got), len(want), 3)
		t.Fatalf("%s: %d rows, want %d; first rows %v, want %v", what, len(got), len(want), got[:n], want[:n])
	}
}

// lendFixtures are the two stores every retention test runs over: TD
// (IRTS records, one per account) and LD (MG records shared by sensors).
var lendFixtures = []struct {
	name string
	load func(testing.TB, *Engine)
}{
	{"TD", func(t testing.TB, e *Engine) { tdFixture(t, e) }},
	{"MG", func(t testing.TB, e *Engine) { ldFixture(t, e) }},
}

func TestLentRowsSortRetains(t *testing.T) {
	cases := map[string][]struct {
		base    string // the query without ORDER BY
		orderBy string
		keys    []int // ordinals in the base query's output
		desc    []bool
	}{
		"TD": {
			{`SELECT * FROM TRADE WHERE T_CA_ID = 3`, ` ORDER BY T_TRADE_PRICE DESC`, []int{2}, []bool{true}},
			{`SELECT * FROM TRADE`, ` ORDER BY T_DTS, T_CA_ID DESC`, []int{1, 0}, []bool{false, true}},
			{`SELECT T_CA_ID, T_DTS * 2 AS d FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1002000`, ` ORDER BY d DESC`, []int{1}, []bool{true}},
		},
		"MG": {
			{`SELECT * FROM Observation`, ` ORDER BY AirTemperature DESC, SensorId`, []int{2, 0}, []bool{true, false}},
			{`SELECT SensorId, WindSpeed FROM Observation WHERE SensorId = 1005`, ` ORDER BY WindSpeed`, []int{1}, []bool{false}},
		},
	}
	for _, fx := range lendFixtures {
		t.Run(fx.name, func(t *testing.T) {
			e := newEngine(t)
			fx.load(t, e)
			for _, c := range cases[fx.name] {
				want := drainCopies(t, mustExec(t, e, c.base))
				sort.SliceStable(want, func(a, b int) bool {
					for k, col := range c.keys {
						if cmp := relational.Compare(want[a][col], want[b][col]); cmp != 0 {
							return (cmp < 0) != c.desc[k]
						}
					}
					return false
				})
				requireRows(t, c.base+c.orderBy, drainCopies(t, mustExec(t, e, c.base+c.orderBy)), want)
			}
		})
	}
}

func TestLentRowsHashJoinBuildRetains(t *testing.T) {
	// The planner's operational-first plan builds on the relational side;
	// here the build side is the virtual scan, whose one row buffer every
	// table entry would otherwise share.
	for _, fx := range []struct {
		name, schema, dim string
		load              func(testing.TB, *Engine)
	}{
		{"TD", "trade", "ACCOUNT", func(t testing.TB, e *Engine) { tdFixture(t, e) }},
		{"MG", "observation", "LinkedSensor", func(t testing.TB, e *Engine) { ldFixture(t, e) }},
	} {
		t.Run(fx.name, func(t *testing.T) {
			e := newEngine(t)
			fx.load(t, e)
			schema, _ := e.cat.SchemaByName(fx.schema)
			dim, _ := e.rel.Table(fx.dim)
			scan := func() *virtualScan {
				return &virtualScan{
					store: e.ts, sel: sourceSel{schema: schema}, cols: virtualColumns(schema, "v"),
					t1: math.MinInt64, t2: math.MaxInt64,
				}
			}
			// Both join keys are column 0: the dimension's id and the
			// virtual table's id.
			got := drainCopies(t, newHashJoin(newRelSeqScan(dim, "d"), scan(), 0, 0))

			left, right := drainCopies(t, newRelSeqScan(dim, "d")), drainCopies(t, scan())
			var want []Row
			for _, l := range left {
				for _, r := range right {
					if !l[0].IsNull() && relational.Compare(l[0], r[0]) == 0 { // SQL equality: NULL matches nothing
						want = append(want, append(slices.Clone(l), r...))
					}
				}
			}
			requireRows(t, "hash join over a virtual build side", got, want)
		})
	}
}

func TestLentRowsFetchAllOwns(t *testing.T) {
	queries := map[string][]string{
		"TD": {
			`SELECT * FROM TRADE WHERE T_CA_ID = 3`,
			`SELECT T_DTS, T_CHRG FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1001500`,
			`SELECT T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_7'`,
			`SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a, CUSTOMER c WHERE a.CA_ID = t.T_CA_ID AND a.CA_C_ID = c.C_ID AND C_DOB BETWEEN '1975-01-01' AND '1985-01-01'`,
			`SELECT * FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND T_DTS < 1001000`,
		},
		"MG": {
			`SELECT * FROM Observation WHERE SensorId = 1005`,
			`SELECT Timestamp, SensorId, AirTemperature FROM Observation WHERE Timestamp BETWEEN 2000000 AND 3380000`,
			`SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND SensorName = 'S03'`,
			`SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND Latitude < 80.0 AND Latitude > 10.0 AND Longitude < -50.0 AND Longitude > -150.0`,
		},
	}
	for _, fx := range lendFixtures {
		t.Run(fx.name, func(t *testing.T) {
			e := newEngine(t)
			fx.load(t, e)
			for _, q := range queries[fx.name] {
				got, _ := fetchAll(t, e, q)
				requireRows(t, q, got, drainCopies(t, mustExec(t, e, q)))
			}
		})
	}
}

func TestLentRowsGatherRetains(t *testing.T) {
	queries := map[string][]string{
		"TD": {
			`SELECT T_CA_ID, T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1002500 ORDER BY T_DTS, T_CA_ID LIMIT 120`,
			`SELECT * FROM TRADE ORDER BY T_TRADE_PRICE DESC, T_CA_ID, T_DTS`,
			`SELECT T_CA_ID, COUNT(*), MAX(T_TRADE_PRICE), AVG(T_CHRG) FROM TRADE GROUP BY T_CA_ID ORDER BY T_CA_ID`,
		},
		"MG": {
			`SELECT SensorId, Timestamp, AirTemperature FROM Observation ORDER BY Timestamp, SensorId`,
			`SELECT SensorId, COUNT(*), MIN(WindSpeed) FROM Observation GROUP BY SensorId ORDER BY SensorId`,
		},
	}
	loads := map[string]func(testing.TB, *Engine, func(int64) bool){
		"TD": func(t testing.TB, e *Engine, keep func(int64) bool) { tdFixtureOf(t, e, keep) },
		"MG": func(t testing.TB, e *Engine, keep func(int64) bool) { ldFixtureOf(t, e, keep) },
	}
	for _, name := range []string{"TD", "MG"} {
		t.Run(name, func(t *testing.T) {
			single := newEngine(t)
			loads[name](t, single, nil)
			// Two shards split the sources by parity; the relational tables
			// are on both, as a replicated cluster keeps them.
			shards := make([]*Engine, 2)
			for i := range shards {
				shards[i] = newEngine(t)
				loads[name](t, shards[i], func(id int64) bool { return id%2 == int64(i) })
			}
			for _, q := range queries[name] {
				stmt, err := sqlparse.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := PlanGather(stmt.(*sqlparse.SelectStmt))
				if err != nil || plan == nil {
					t.Fatalf("PlanGather(%q) = %v, %v", q, plan, err)
				}
				shardSQL := q
				if plan.ShardSQL != "" {
					shardSQL = plan.ShardSQL
				}
				acc := NewGatherAccum(plan)
				for _, sh := range shards {
					rows, res := fetchAll(t, sh, shardSQL)
					if err := acc.Fold(res.Columns, rows); err != nil {
						t.Fatal(err)
					}
				}
				got, err := acc.Result()
				if err != nil {
					t.Fatal(err)
				}
				requireRows(t, "gather "+q, got, drainCopies(t, mustExec(t, single, q)))
			}
		})
	}
}

// TestResultDrainAllocatesPerQueryNotPerRow pins what lending buys: a
// query's allocations beyond the tsstore scan of the same window are a
// per-query constant — parse, plan, operators, one row buffer each — the
// same for 50 rows as for 500.
func TestResultDrainAllocatesPerQueryNotPerRow(t *testing.T) {
	e := newEngine(t)
	schema, err := e.cat.CreateSchema(model.SchemaType{
		Name: "trade", IDName: "T_CA_ID", TSName: "T_DTS",
		Tags: []model.TagDef{{Name: "T_TRADE_PRICE"}, {Name: "T_CHRG"}, {Name: "T_COMM"}, {Name: "T_TAX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cat.CreateVirtualTable("TRADE", schema.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cat.RegisterSource(model.DataSource{ID: 1, SchemaID: schema.ID, IntervalMs: 50}); err != nil {
		t.Fatal(err)
	}
	const base = int64(1_000_000)
	for i := int64(0); i < 600; i++ {
		if err := e.ts.Write(model.Point{Source: 1, TS: base + 10*i, Values: []float64{100 + float64(i), 0.5, 0.25, 0.1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ts.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, shape := range []struct {
		list     string
		wantTags []int // what the planner decodes for the list
	}{
		{"T_DTS, T_CHRG", []int{1}},
		{"*", nil},
	} {
		var perQuery [2]float64
		for k, rows := range []int64{50, 500} {
			t2 := base + 10*(rows-1)
			sql := fmt.Sprintf(`SELECT %s FROM TRADE WHERE T_CA_ID = 1 AND T_DTS BETWEEN %d AND %d`, shape.list, base, t2)
			query := func() {
				res, err := e.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				for {
					_, ok, err := res.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
				if res.RowCount != rows {
					t.Fatalf("%s: %d rows, want %d", sql, res.RowCount, rows)
				}
			}
			scan := func() {
				it, err := e.ts.MultiHistoricalScanOpts([]int64{1}, base, t2+1, shape.wantTags, tsstore.ScanOptions{})
				if err != nil {
					t.Fatal(err)
				}
				n := int64(0)
				for _, ok := it.Next(); ok; _, ok = it.Next() {
					n++
				}
				if n != rows {
					t.Fatalf("scan of %s's window: %d rows, want %d", sql, n, rows)
				}
			}
			perQuery[k] = testing.AllocsPerRun(100, query) - testing.AllocsPerRun(100, scan)
		}
		t.Logf("SELECT %s: %.0f allocations beyond the scan at 50 rows, %.0f at 500", shape.list, perQuery[0], perQuery[1])
		// The same count at both sizes, up to a slack of one allocation per
		// 50 extra rows: under the race detector sync.Pool drops pooled
		// scan scratch at random, which moves either count by a few. A row
		// that allocates even once adds 450.
		if perQuery[1] > perQuery[0]+450/50 {
			t.Errorf("SELECT %s: allocations beyond the scan grow with the rows: %.0f at 50 rows, %.0f at 500", shape.list, perQuery[0], perQuery[1])
		}
	}
}
