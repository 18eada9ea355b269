package sqlexec

import (
	"fmt"
	"strings"
	"testing"
)

// TestRowFilterMatchesKeepAllReference holds the row filter to what the
// scans enforce: a conjunct the window or the source selection says
// exactly leaves the filter, everything else stays. Each query is compared
// with a reference that spells every virtual-table conjunct as `col + 0`,
// which no access path absorbs, so the reference filters every row by
// every conjunct over a full scan.
func TestRowFilterMatchesKeepAllReference(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	// Account 4 shares account 3's name, and 1,400 accounts without trades
	// make hash-joining ACCOUNT dearer than probing its name index, so a
	// query pinning t.T_CA_ID = 3 is planned relational-first and drives
	// both accounts.
	mustExec(t, e, `INSERT INTO ACCOUNT VALUES (4, 1, 'acct_3', 400)`)
	for base := 1000; base < 2400; base += 200 {
		vals := make([]string, 200)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, 1, 'idle_%d', 0)", base+i, base+i)
		}
		mustExec(t, e, `INSERT INTO ACCOUNT VALUES `+strings.Join(vals, ", "))
	}
	for _, tc := range []struct {
		name, sql, ref string
		plan           []string // substrings the plan must contain
		check          func(Row) bool
	}{
		{
			// The join re-aims the inner scan at each outer account, so the
			// pinned id must stay a filter above it.
			name:  "relational-first with a pinned id",
			sql:   `SELECT T_CA_ID, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_3' AND t.T_CA_ID = 3`,
			ref:   `SELECT T_CA_ID, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_3' AND t.T_CA_ID + 0 = 3`,
			plan:  []string{"Filter((t.T_CA_ID = 3))", "NLJoin->VirtualHistorical"},
			check: func(r Row) bool { return r[0].AsInt() == 3 },
		},
		{
			// A fractional bound is bracketed by integers: inexact, so it
			// stays a filter while the window narrows the scan.
			name: "fractional timestamp bound",
			sql:  `SELECT T_CA_ID, T_DTS FROM TRADE WHERE T_CA_ID = 3 AND T_DTS >= 1000500.5 AND T_DTS < 1001500.5`,
			ref:  `SELECT T_CA_ID, T_DTS FROM TRADE WHERE T_CA_ID + 0 = 3 AND T_DTS + 0 >= 1000500.5 AND T_DTS + 0 < 1001500.5`,
			plan: []string{"Filter(((T_DTS >= 1.0005005e+06) AND (T_DTS < 1.0015005e+06)))", "ts=[1000501,1001501)"},
		},
		{
			// A row scan applies a tag predicate's zone hull only.
			name:  "tag conjunct",
			sql:   `SELECT T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_DTS BETWEEN 1000500 AND 1001500 AND T_TRADE_PRICE > 120`,
			ref:   `SELECT T_DTS, T_TRADE_PRICE FROM TRADE WHERE T_DTS + 0 BETWEEN 1000500 AND 1001500 AND T_TRADE_PRICE + 0 > 120`,
			plan:  []string{"Filter((T_TRADE_PRICE > 120))"},
			check: func(r Row) bool { return r[1].AsFloat() > 120 },
		},
		{
			name: "IN list with a duplicate id",
			sql:  `SELECT * FROM TRADE WHERE T_CA_ID IN (2, 5, 5, 9) AND T_DTS < 1001500`,
			ref:  `SELECT * FROM TRADE WHERE T_CA_ID + 0 IN (2, 5, 5, 9) AND T_DTS + 0 < 1001500`,
			plan: []string{"VirtualMultiScan(trade, 3 ids"},
		},
		{
			name: "join with a time window",
			sql:  `SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND T_DTS BETWEEN 1000500 AND 1001500`,
			ref:  `SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND T_DTS + 0 BETWEEN 1000500 AND 1001500`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := e.Plan(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.plan {
				if !strings.Contains(plan, want) {
					t.Fatalf("plan lacks %q:\n%s", want, plan)
				}
			}
			got, _ := fetchAll(t, e, tc.sql)
			want, _ := fetchAll(t, e, tc.ref)
			if len(want) == 0 {
				t.Fatalf("the reference is empty; the fixture does not exercise it")
			}
			gk, wk := sortedKeys(got), sortedKeys(want)
			if strings.Join(gk, "\n") != strings.Join(wk, "\n") {
				t.Fatalf("%d rows, reference %d\nplan:\n%s", len(gk), len(wk), plan)
			}
			for _, r := range got {
				if tc.check != nil && !tc.check(r) {
					t.Fatalf("row %v breaks a conjunct", r)
				}
			}
		})
	}
}

// TestFusedBlobBytesCountsTheOpenScan holds the relational-first join's
// blob bytes to what its inner scans read, the one still open included: a
// LIMIT that stops inside an account's scan reports more than nothing and
// no more than the drained query.
func TestFusedBlobBytesCountsTheOpenScan(t *testing.T) {
	e := newEngine(t)
	tdFixture(t, e)
	const sql = `SELECT T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_1'`
	rows, all := fetchAll(t, e, sql)
	if len(rows) != 50 || all.BlobBytes() != 1297 {
		t.Fatalf("drained: %d rows, %d blob bytes; want 50 and 1297", len(rows), all.BlobBytes())
	}
	rows, one := fetchAll(t, e, sql+" LIMIT 1")
	if len(rows) != 1 || one.BlobBytes() <= 0 || one.BlobBytes() > all.BlobBytes() {
		t.Fatalf("LIMIT 1: %d rows, %d blob bytes; want 1 row and 1..%d", len(rows), one.BlobBytes(), all.BlobBytes())
	}
}
