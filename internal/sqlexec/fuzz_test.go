package sqlexec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"odh/internal/relational"
	"odh/internal/sqlparse"
)

// FuzzQueryPipeline pushes arbitrary SQL through sqlparse and the
// executor over a populated historian with parallel aggregates enabled.
// Three invariants: the pipeline never panics (errors are fine); every
// accepted SELECT answers the same with the summary-aggregate pushdown on
// and off (the decode-and-group plan is the oracle for the planner's one
// access descriptor); and when the input is a row query over the virtual
// table with plain integer bounds on its timestamp, every returned
// timestamp satisfies them.
func FuzzQueryPipeline(f *testing.F) {
	e := newEngine(f)
	e.SetQueryWorkers(4)
	tdFixture(f, e)

	f.Add(`SELECT T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_CA_ID = 3 AND T_DTS >= 1000000 AND T_DTS < 1002000`)
	f.Add(`SELECT * FROM TRADE WHERE T_CA_ID IN (1, 2, 9)`)
	f.Add(`SELECT CA_NAME, COUNT(*) FROM ACCOUNT GROUP BY CA_NAME`)
	f.Add(`SELECT C_L_NAME, SUM(T_TRADE_PRICE) FROM TRADE, ACCOUNT, CUSTOMER WHERE T_CA_ID = CA_ID AND CA_C_ID = C_ID GROUP BY C_L_NAME`)
	f.Add(`EXPLAIN SELECT * FROM TRADE WHERE T_CA_ID = 1`)
	f.Add(`SELECT MIN(T_DTS), MAX(T_CHRG) FROM TRADE WHERE T_CA_ID = 5 AND T_DTS < 1001000`)
	f.Add(`INSERT INTO ACCOUNT VALUES (99, 1, 'x', 0)`)
	f.Add(`SELECT T_DTS FROM TRADE WHERE T_CA_ID = 1 ORDER BY T_DTS DESC LIMIT 3`)
	f.Add(`SELECT`)
	f.Add(`)(][;;`)
	// The time-bound matrix's shapes: fractional, extreme, mirrored and
	// string literals over every plan that carries a pushed window.
	f.Add(`SELECT COUNT(*), SUM(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = 3 AND T_DTS < 1001000.5`)
	f.Add(`SELECT COUNT(*), MIN(T_TRADE_PRICE) FROM TRADE WHERE -1001000.5 < T_DTS AND T_DTS <= 9223372036854775807`)
	f.Add(`SELECT T_CA_ID, COUNT(*) FROM TRADE WHERE T_DTS BETWEEN 1000500.5 AND 9223372036854775807.0 GROUP BY T_CA_ID`)
	f.Add(`SELECT T_DTS FROM TRADE WHERE T_CA_ID IN (2, 4) AND T_DTS = 1001000.0 AND 1002000 >= T_DTS`)
	f.Add(`SELECT TIME_BUCKET(500, T_DTS), COUNT(*), MAX(T_CHRG) FROM TRADE WHERE T_DTS > '1970-01-01 00:16:40.500' GROUP BY TIME_BUCKET(500, T_DTS)`)
	f.Add(`SELECT T_DTS, CA_NAME FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_7' AND T_DTS > -9223372036854775807 AND T_DTS < 1001000.5`)
	f.Add(`SELECT COUNT(*) FROM TRADE WHERE T_CA_ID = 2 AND T_CA_ID IN (2, 3) AND T_TRADE_PRICE BETWEEN 110 AND 130.5`)

	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.Parse(sql)
		sel, isSelect := stmt.(*sqlparse.SelectStmt)
		if err != nil || !isSelect || sel.Explain {
			if res, err := e.Query(sql); err == nil {
				res.FetchAll() // rejected or failing input is fine; only panics are bugs
			}
			return
		}
		run := func(pushdown bool) (*Result, []Row, error) {
			e.SetAggPushdown(pushdown)
			defer e.SetAggPushdown(true)
			res, err := e.Query(sql)
			if err != nil {
				return nil, nil, err
			}
			rows, err := res.FetchAll()
			return res, rows, err
		}
		res, pushRows, pushErr := run(true)
		_, refRows, refErr := run(false)
		if (pushErr == nil) != (refErr == nil) {
			t.Fatalf("%s: pushdown err %v, fallback err %v", sql, pushErr, refErr)
		}
		if pushErr != nil {
			return
		}
		if len(pushRows) != len(refRows) {
			t.Fatalf("%s: pushdown %d rows, fallback %d rows", sql, len(pushRows), len(refRows))
		}
		// GROUP BY emits groups in an undefined order, so the plans agree as
		// multisets — unless a LIMIT picked different members of one.
		if sel.Limit < 0 {
			sortRows(pushRows)
			sortRows(refRows)
			for i := range pushRows {
				if !rowsClose(pushRows[i], refRows[i]) {
					t.Fatalf("%s: row %d differs:\n  pushdown %v\n  fallback %v", sql, i, pushRows[i], refRows[i])
				}
			}
		}
		checkWindow(t, sql, sel, res.Columns, pushRows)
	})
}

// sortRows orders rows by their rendering, floats shortened to the digits
// rowsClose compares.
func sortRows(rows []Row) {
	key := func(r Row) string {
		var b strings.Builder
		for _, v := range r {
			if v.Kind == relational.KindFloat {
				fmt.Fprintf(&b, "%.9g|", v.F)
			} else {
				fmt.Fprintf(&b, "%d:%s|", v.Kind, v.String())
			}
		}
		return b.String()
	}
	sort.SliceStable(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
}

// rowsClose compares two rows cell by cell; floats may differ by rounding
// (a summary fold adds per-blob subtotals, a decode adds row by row).
func rowsClose(a, b Row) bool {
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
		if a[i].Kind == relational.KindFloat {
			x, y := a[i].F, b[i].F
			if x != y && !(math.IsNaN(x) && math.IsNaN(y)) && math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				return false
			}
		} else if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// checkWindow asserts the range invariant for a non-aggregated query over
// TRADE alone that returns T_DTS: each conjunct comparing T_DTS with an
// integer literal (either side, or BETWEEN two) holds for every row.
func checkWindow(t *testing.T, sql string, sel *sqlparse.SelectStmt, cols []string, rows []Row) {
	if len(sel.From) != 1 || !strings.EqualFold(sel.From[0].Name, "TRADE") || hasAggregates(sel.Items) || len(sel.GroupBy) > 0 {
		return
	}
	tsCol := -1
	if len(sel.Items) == 1 && sel.Items[0].Star {
		tsCol = 1
	} else {
		for i, item := range sel.Items {
			if c, ok := item.Expr.(*sqlparse.ColumnRef); ok && item.Alias == "" && strings.EqualFold(c.Name, "T_DTS") {
				tsCol = i
			}
		}
	}
	if tsCol < 0 || tsCol >= len(cols) {
		return
	}
	isTS := func(e sqlparse.Expr) bool {
		c, ok := e.(*sqlparse.ColumnRef)
		return ok && strings.EqualFold(c.Name, "T_DTS")
	}
	intLiteral := func(e sqlparse.Expr) (int64, bool) {
		l, ok := e.(*sqlparse.Literal)
		if !ok || l.Val.Kind != relational.KindInt {
			return 0, false
		}
		return l.Val.I, true
	}
	holds := func(op string, ts, lit int64) bool {
		switch op {
		case "<":
			return ts < lit
		case "<=":
			return ts <= lit
		case ">":
			return ts > lit
		case ">=":
			return ts >= lit
		case "=":
			return ts == lit
		}
		return true
	}
	for _, conj := range sqlparse.SplitConjuncts(sel.Where) {
		for _, row := range rows {
			ts, ok := row[tsCol].I, true
			switch x := conj.(type) {
			case *sqlparse.BinaryExpr:
				if lit, isInt := intLiteral(x.R); isTS(x.L) && isInt {
					ok = holds(x.Op, ts, lit)
				} else if lit, isInt := intLiteral(x.L); isTS(x.R) && isInt {
					ok = holds(x.Op, lit, ts)
				}
			case *sqlparse.BetweenExpr:
				lo, loInt := intLiteral(x.Lo)
				hi, hiInt := intLiteral(x.Hi)
				if isTS(x.Target) && loInt && hiInt {
					ok = lo <= ts && ts <= hi
				}
			}
			if !ok {
				t.Fatalf("%s: returned timestamp %d violates %s", sql, ts, conj)
			}
		}
	}
}

// TestQueryPipelineRangeInvariant drives the fuzzer's range invariant
// deterministically: constructed window queries, executed serial and
// parallel, must only return timestamps inside [t1, t2) and must agree
// with each other row for row.
func TestQueryPipelineRangeInvariant(t *testing.T) {
	e := newEngine(t)
	accounts := tdFixture(t, e)
	windows := [][2]int64{{1000000, 1000500}, {1000400, 1002000}, {999000, 1000001}, {1001000, 1001000}}
	for _, acct := range accounts {
		for _, w := range windows {
			q := fmt.Sprintf(`SELECT T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_CA_ID = %d AND T_DTS >= %d AND T_DTS < %d`, acct, w[0], w[1])
			run := func(workers int) []string {
				e.SetQueryWorkers(workers)
				res, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := res.FetchAll()
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, row := range rows {
					ts := row[0].AsInt()
					if row[0].IsNull() || ts < w[0] || ts >= w[1] {
						t.Fatalf("workers=%d: timestamp %s outside [%d,%d)", workers, row[0], w[0], w[1])
					}
					cells := make([]string, len(row))
					for i, v := range row {
						cells[i] = v.String()
					}
					out = append(out, strings.Join(cells, "|"))
				}
				return out
			}
			serial := run(0)
			parallel := run(4)
			if len(serial) != len(parallel) {
				t.Fatalf("row counts diverged: %d vs %d", len(serial), len(parallel))
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("row %d diverged: %q vs %q", i, serial[i], parallel[i])
				}
			}
		}
	}
}
