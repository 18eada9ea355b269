package sqlexec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/tsstore"
)

// rowKey canonicalizes a row for multiset comparison, bit-exact for
// floats (GROUP BY output order is not defined without ORDER BY, so the
// two plans may emit groups in different orders).
func rowKey(r Row) string {
	var b strings.Builder
	for _, v := range r {
		fmt.Fprintf(&b, "%d:", v.Kind)
		switch v.Kind {
		case relational.KindFloat:
			fmt.Fprintf(&b, "%016x", math.Float64bits(v.F))
		case relational.KindString:
			b.WriteString(v.S)
		default:
			fmt.Fprintf(&b, "%d", v.I)
		}
		b.WriteByte('|')
	}
	return b.String()
}

func sortedKeys(rows []Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// runBoth executes sql with the pushdown enabled and disabled and asserts
// the result multisets are bit-identical. It returns the two Results for
// counter assertions.
func runBoth(t *testing.T, e *Engine, sql string) (*Result, *Result) {
	t.Helper()
	e.SetAggPushdown(true)
	pushRows, pushRes := fetchAll(t, e, sql)
	e.SetAggPushdown(false)
	refRows, refRes := fetchAll(t, e, sql)
	e.SetAggPushdown(true)
	pk, rk := sortedKeys(pushRows), sortedKeys(refRows)
	if len(pk) != len(rk) {
		t.Fatalf("%s: pushdown %d rows, fallback %d rows", sql, len(pk), len(rk))
	}
	for i := range pk {
		if pk[i] != rk[i] {
			t.Fatalf("%s: row %d differs:\n  pushdown %s\n  fallback %s", sql, i, pk[i], rk[i])
		}
	}
	return pushRes, refRes
}

// planFor returns the EXPLAIN text with the pushdown enabled.
func planFor(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	e.SetAggPushdown(true)
	plan, err := e.Plan(sql)
	if err != nil {
		t.Fatalf("Plan(%q): %v", sql, err)
	}
	return plan
}

func TestAggPushdownMatchesFallback(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)

	// Integer-valued T_TRADE_PRICE and the exactly-representable T_CHRG
	// (0.5) keep float sums association-independent, so per-blob subtotal
	// folding is bit-identical to row-order accumulation.
	eligible := []string{
		`SELECT COUNT(*) FROM TRADE`,
		`SELECT COUNT(*), COUNT(T_TRADE_PRICE), SUM(T_TRADE_PRICE), AVG(T_TRADE_PRICE), MIN(T_TRADE_PRICE), MAX(T_TRADE_PRICE) FROM TRADE`,
		`SELECT SUM(T_CHRG), MAX(T_COMM) FROM TRADE WHERE T_DTS >= 1000500 AND T_DTS < 1001800`,
		`SELECT COUNT(*) FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1001800`,
		`SELECT COUNT(*), AVG(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = 3`,
		`SELECT COUNT(*), MIN(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID IN (2, 4, 6)`,
		`SELECT T_CA_ID, COUNT(*), SUM(T_TRADE_PRICE) FROM TRADE GROUP BY T_CA_ID`,
		`SELECT TIME_BUCKET(500, T_DTS), COUNT(*), MAX(T_TRADE_PRICE) FROM TRADE GROUP BY TIME_BUCKET(500, T_DTS)`,
		`SELECT T_CA_ID, TIME_BUCKET(700, T_DTS), COUNT(*), AVG(T_CHRG) FROM TRADE GROUP BY T_CA_ID, TIME_BUCKET(700, T_DTS)`,
		`SELECT COUNT(*), MAX(T_TRADE_PRICE) FROM TRADE WHERE T_TRADE_PRICE > 120`,
		`SELECT COUNT(*) FROM TRADE WHERE T_TRADE_PRICE BETWEEN 110 AND 130 AND T_CHRG = 0.5`,
		`SELECT T_CA_ID, COUNT(*) FROM TRADE GROUP BY T_CA_ID HAVING COUNT(*) > 10 ORDER BY T_CA_ID DESC LIMIT 4`,
		`SELECT COUNT(*), SUM(T_TRADE_PRICE), MIN(T_TRADE_PRICE) FROM TRADE WHERE T_DTS < 0`,
		`SELECT T_CA_ID FROM TRADE GROUP BY T_CA_ID`,
	}
	for _, sql := range eligible {
		runBoth(t, e, sql)
		if plan := planFor(t, e, sql); !strings.Contains(plan, "agg-pushdown") || !strings.Contains(plan, "AggPushdown") {
			t.Fatalf("expected pushdown for %q, plan:\n%s", sql, plan)
		}
	}

	// Shapes the rewrite must refuse (lossy or unsupported): they still
	// run, on the generic plan.
	ineligible := []string{
		`SELECT COUNT(*) FROM TRADE WHERE T_DTS >= 1000000.5`,
		`SELECT COUNT(*) FROM TRADE WHERE T_TRADE_PRICE IS NULL`,
		`SELECT COUNT(*) FROM TRADE WHERE NOT T_TRADE_PRICE > 120`,
		`SELECT COUNT(*) FROM TRADE WHERE T_TRADE_PRICE > 120 OR T_CHRG > 1`,
		`SELECT T_CHRG, COUNT(*) FROM TRADE GROUP BY T_CHRG`,
		`SELECT MIN(T_DTS) FROM TRADE`,
		`SELECT COUNT(T_CA_ID) FROM TRADE`,
	}
	for _, sql := range ineligible {
		runBoth(t, e, sql)
		if plan := planFor(t, e, sql); strings.Contains(plan, "AggPushdown") {
			t.Fatalf("pushdown must not fire for %q, plan:\n%s", sql, plan)
		}
	}
}

func TestAggPushdownWithBufferedRows(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	// Unflushed points must contribute through the buffer part.
	for i := 0; i < 7; i++ {
		if err := e.ts.Write(model.Point{Source: 3, TS: int64(2000000 + i*50),
			Values: []float64{200 + float64(i), 0.5, 0.25, 0.1}}); err != nil {
			t.Fatal(err)
		}
	}
	runBoth(t, e, `SELECT COUNT(*), SUM(T_TRADE_PRICE), MAX(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = 3`)
	runBoth(t, e, `SELECT T_CA_ID, COUNT(*) FROM TRADE GROUP BY T_CA_ID`)
}

func TestAggPushdownMGSchema(t *testing.T) {
	e := newEngine(t)
	ldFixture(t, e)
	for _, sql := range []string{
		`SELECT COUNT(*), AVG(AirTemperature) FROM Observation`,
		`SELECT SensorId, COUNT(AirTemperature), COUNT(WindSpeed) FROM Observation GROUP BY SensorId`,
		`SELECT TIME_BUCKET(10000000, Timestamp), COUNT(*) FROM Observation GROUP BY TIME_BUCKET(10000000, Timestamp)`,
	} {
		runBoth(t, e, sql)
	}
}

// TestAggPushdownNearEquality covers non-associative float sums (0.1 is
// not exactly representable): per-blob folding may differ from row-order
// accumulation only by rounding.
func TestAggPushdownNearEquality(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	sql := `SELECT SUM(T_TAX), AVG(T_TAX) FROM TRADE`
	e.SetAggPushdown(true)
	push, _ := fetchAll(t, e, sql)
	e.SetAggPushdown(false)
	ref, _ := fetchAll(t, e, sql)
	for i := range push[0] {
		p, r := push[0][i].AsFloat(), ref[0][i].AsFloat()
		if math.Abs(p-r) > 1e-9*math.Max(math.Abs(p), 1) {
			t.Fatalf("column %d: pushdown %v vs fallback %v", i, p, r)
		}
	}
}

// TestAggPushdownBytesPinned pins the pushdown's byte economics on a dense
// 200 000-point history (one RTS source at 10 ms, four tags, 128-point
// batches): a grand total and a TIME_BUCKET roll-up over a window that
// clips the first and last batch decode only those boundary blobs and fold
// the rest from header summaries, while the fallback decodes every blob in
// the window. The counts are deterministic; they move only with the blob
// format, the fold eligibility rules or the byte accounting.
func TestAggPushdownBytesPinned(t *testing.T) {
	const nPts = 200_000
	e := newEngineWith(t, tsstore.Config{BatchSize: 128})
	schema, err := e.cat.CreateSchema(model.SchemaType{
		Name: "scan", IDName: "id", TSName: "ts",
		Tags: []model.TagDef{{Name: "t0"}, {Name: "t1"}, {Name: "t2"}, {Name: "t3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cat.CreateVirtualTable("V", schema.ID); err != nil {
		t.Fatal(err)
	}
	ds, err := e.cat.RegisterSource(model.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPts; i++ {
		p := model.Point{Source: ds.ID, TS: int64(i+1) * 10,
			Values: []float64{float64(i % 97), float64(i), 3.5, float64(i % 11)}}
		if err := e.ts.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ts.Flush(); err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf(` FROM V WHERE id = %d AND ts >= 15 AND ts < %d`, ds.ID, (nPts+1)*10-5)
	var decoded, fallback int64
	for _, sql := range []string{
		`SELECT COUNT(*), SUM(t1), AVG(t2), MIN(t0), MAX(t0)` + where,
		`SELECT TIME_BUCKET(100000, ts), COUNT(*), MAX(t1)` + where + ` GROUP BY TIME_BUCKET(100000, ts)`,
	} {
		push, ref := runBoth(t, e, sql)
		decoded += push.BlobBytes()
		fallback += ref.BlobBytes()
	}
	st := e.ts.Stats()
	if decoded != 19746 || fallback != 2778518 || st.SummaryHits != 3104 ||
		decoded+st.BytesNotDecoded != fallback || st.SubBucketFolds != 0 {
		t.Fatalf("decoded=%d fallback=%d folds=%d notDecoded=%d subFolds=%d, want 19746 2778518 3104 %d 0",
			decoded, fallback, st.SummaryHits, st.BytesNotDecoded, st.SubBucketFolds, fallback-decoded)
	}
}
