package sqlparse

import (
	"strings"
	"testing"

	"odh/internal/relational"
)

func parseSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T, want *SelectStmt", stmt)
	}
	return sel
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, 'it''s' FROM t WHERE x >= 1.5e3 -- comment\n AND y != 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", "FROM", "t", "WHERE", "x", ">=", "1.5e3", "AND", "y", "!=", "2", ""}
	if len(texts) != len(want) {
		t.Fatalf("token texts = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[5] != TokString {
		t.Fatal("escaped string literal not lexed as string")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Fatal("bad char accepted")
	}
}

func TestParseTQ1(t *testing.T) {
	sel := parseSelect(t, "select * from TRADE where T_CA_ID = 42")
	if !sel.Items[0].Star || len(sel.From) != 1 || sel.From[0].Name != "TRADE" {
		t.Fatalf("%+v", sel)
	}
	be, ok := sel.Where.(*BinaryExpr)
	if !ok || be.Op != "=" {
		t.Fatalf("where = %v", sel.Where)
	}
}

func TestParseTQ2Between(t *testing.T) {
	sel := parseSelect(t, "select * from TRADE where T_DTS between '2013-11-18 00:00:00' and '2013-11-22 23:59:59'")
	b, ok := sel.Where.(*BetweenExpr)
	if !ok {
		t.Fatalf("where = %T", sel.Where)
	}
	lo := b.Lo.(*Literal)
	if lo.Val.Kind != relational.KindString || !strings.HasPrefix(lo.Val.S, "2013-11-18") {
		t.Fatalf("lo = %v", lo.Val)
	}
}

func TestParseTQ4ThreeWayJoin(t *testing.T) {
	sel := parseSelect(t, `select CA_NAME, T_DTS, T_CHRG from TRADE t, ACCOUNT a, CUSTOMER c
		where a.CA_ID = t.T_CA_ID and a.CA_C_ID = c.C_ID and C_DOB between 100 and 200`)
	if len(sel.From) != 3 {
		t.Fatalf("from = %+v", sel.From)
	}
	if sel.From[0].Binding() != "t" || sel.From[2].Binding() != "c" {
		t.Fatalf("aliases: %+v", sel.From)
	}
	conj := SplitConjuncts(sel.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
}

func TestParseLQ4(t *testing.T) {
	sel := parseSelect(t, `select Timestamp, SensorId, AirTemperature from Observation o, LinkedSensor l
		where l.SensorId = o.SensorId and Latitude < 36.804 and Latitude > 36.803
		and Longitude < -115.977 and Longitude > -115.978`)
	conj := SplitConjuncts(sel.Where)
	if len(conj) != 5 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	// The negative longitude literal must carry its sign.
	last := conj[4].(*BinaryExpr)
	lit := last.R.(*Literal)
	if lit.Val.F != -115.978 {
		t.Fatalf("negative literal = %v", lit.Val)
	}
}

func TestParseProjectionAliases(t *testing.T) {
	sel := parseSelect(t, "select T_DTS AS ts, T_CHRG chrg from TRADE")
	if sel.Items[0].Alias != "ts" || sel.Items[1].Alias != "chrg" {
		t.Fatalf("aliases: %+v", sel.Items)
	}
}

func TestParseQualifiedStar(t *testing.T) {
	sel := parseSelect(t, "select t.* from TRADE t")
	if !sel.Items[0].Star || sel.Items[0].StarTable != "t" {
		t.Fatalf("%+v", sel.Items[0])
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	sel := parseSelect(t, "select SensorId, COUNT(*), AVG(AirTemperature) from Observation group by SensorId order by SensorId desc limit 10")
	if len(sel.GroupBy) != 1 || sel.Limit != 10 || !sel.OrderBy[0].Desc {
		t.Fatalf("%+v", sel)
	}
	f := sel.Items[1].Expr.(*FuncExpr)
	if f.Name != "COUNT" || !f.Star {
		t.Fatalf("func: %+v", f)
	}
	avg := sel.Items[2].Expr.(*FuncExpr)
	if avg.Name != "AVG" || avg.Star {
		t.Fatalf("func: %+v", avg)
	}
}

func TestParseArithmetic(t *testing.T) {
	sel := parseSelect(t, "select T_TRADE_PRICE * 2 + 1 from TRADE where T_CHRG / 2 > 0.5")
	b := sel.Items[0].Expr.(*BinaryExpr)
	if b.Op != "+" {
		t.Fatalf("precedence broken: %v", b)
	}
	inner := b.L.(*BinaryExpr)
	if inner.Op != "*" {
		t.Fatalf("precedence broken: %v", inner)
	}
}

func TestParseInAndIsNull(t *testing.T) {
	sel := parseSelect(t, "select * from t where a in (1, 2, 3) and b is not null and c is null")
	conj := SplitConjuncts(sel.Where)
	if _, ok := conj[0].(*InExpr); !ok {
		t.Fatalf("conj0 = %T", conj[0])
	}
	n1 := conj[1].(*IsNullExpr)
	if !n1.Negate {
		t.Fatal("IS NOT NULL lost negation")
	}
	n2 := conj[2].(*IsNullExpr)
	if n2.Negate {
		t.Fatal("IS NULL gained negation")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE Customer (C_ID BIGINT, C_L_NAME VARCHAR(32), C_TIER INT, C_DOB TIMESTAMP, C_RATE DOUBLE)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "Customer" || len(ct.Columns) != 5 {
		t.Fatalf("%+v", ct)
	}
	wantKinds := []relational.Kind{relational.KindInt, relational.KindString, relational.KindInt, relational.KindTime, relational.KindFloat}
	for i, w := range wantKinds {
		if ct.Columns[i].Type != w {
			t.Fatalf("col %d type = %v, want %v", i, ct.Columns[i].Type, w)
		}
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt, err := Parse("CREATE INDEX by_dts ON TRADE (T_DTS, T_CA_ID)")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndexStmt)
	if ci.Table != "TRADE" || len(ci.Columns) != 2 {
		t.Fatalf("%+v", ci)
	}
}

func TestParseCreateVirtualTable(t *testing.T) {
	stmt, err := Parse("CREATE VIRTUAL TABLE environ_data_v SCHEMA environ")
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*CreateVirtualTableStmt)
	if cv.Name != "environ_data_v" || cv.Schema != "environ" {
		t.Fatalf("%+v", cv)
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO Customer (C_ID, C_L_NAME) VALUES (1, 'Smith'), (2, 'Jones')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("%+v", ins)
	}
	if ins.Rows[1][1].(*Literal).Val.S != "Jones" {
		t.Fatalf("row values: %+v", ins.Rows[1])
	}
}

func TestParseExplain(t *testing.T) {
	sel := parseSelect(t, "EXPLAIN SELECT * FROM t WHERE a = 1")
	if !sel.Explain {
		t.Fatal("explain flag lost")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel := parseSelect(t, "select * from t where lat > -115.978 and n = -42")
	conj := SplitConjuncts(sel.Where)
	if conj[0].(*BinaryExpr).R.(*Literal).Val.F != -115.978 {
		t.Fatal("negative float")
	}
	if conj[1].(*BinaryExpr).R.(*Literal).Val.I != -42 {
		t.Fatal("negative int")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT -1",
		"CREATE TABLE t",
		"CREATE TABLE t (a NOPE)",
		"INSERT INTO t VALUES",
		"SELECT * FROM t; SELECT * FROM u",
		"SELECT SUM(*) FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Fatalf("Parse(%q) accepted", sql)
		}
	}
}

func TestConjunctRoundtrip(t *testing.T) {
	sel := parseSelect(t, "select * from t where a = 1 and b = 2 and c = 3")
	conj := SplitConjuncts(sel.Where)
	if len(conj) != 3 {
		t.Fatalf("%d conjuncts", len(conj))
	}
	rebuilt := JoinConjuncts(conj)
	if len(SplitConjuncts(rebuilt)) != 3 {
		t.Fatal("JoinConjuncts broke structure")
	}
	if JoinConjuncts(nil) != nil {
		t.Fatal("empty join should be nil")
	}
}

func TestParseScalarFunctions(t *testing.T) {
	sel := parseSelect(t, "select time_bucket(60000, timestamp), abs(v - 3) from obs group by time_bucket(60000, timestamp)")
	fe := sel.Items[0].Expr.(*FuncExpr)
	if fe.Name != "TIME_BUCKET" || len(fe.Args) != 2 || fe.IsAggregate() {
		t.Fatalf("func: %+v", fe)
	}
	if fe.Args[0].(*Literal).Val.I != 60000 {
		t.Fatalf("arg0: %v", fe.Args[0])
	}
	abs := sel.Items[1].Expr.(*FuncExpr)
	if abs.Name != "ABS" || len(abs.Args) != 1 {
		t.Fatalf("abs: %+v", abs)
	}
	gb := sel.GroupBy[0].(*FuncExpr)
	if gb.String() != fe.String() {
		t.Fatalf("group-by stringification mismatch: %q vs %q", gb.String(), fe.String())
	}
}

func TestParseZeroArgFunction(t *testing.T) {
	sel := parseSelect(t, "select now() from t")
	fe := sel.Items[0].Expr.(*FuncExpr)
	if fe.Name != "NOW" || len(fe.Args) != 0 {
		t.Fatalf("func: %+v", fe)
	}
}

func TestParseAggregateVsScalarClassification(t *testing.T) {
	sel := parseSelect(t, "select sum(x), time_bucket(10, ts) from t")
	if !sel.Items[0].Expr.(*FuncExpr).IsAggregate() {
		t.Fatal("SUM not classified as aggregate")
	}
	if sel.Items[1].Expr.(*FuncExpr).IsAggregate() {
		t.Fatal("TIME_BUCKET classified as aggregate")
	}
}

func TestLexerTolerance(t *testing.T) {
	// Every prefix of a valid statement either lexes cleanly or fails with
	// a positioned error; none may panic.
	full := "SELECT time_bucket(60000, ts) AS b, AVG(temperature) FROM environ_data_v WHERE id = 7 AND ts BETWEEN '2013-11-18 00:00:00' AND '2013-11-22' GROUP BY b ORDER BY b DESC LIMIT 10;"
	for i := 0; i <= len(full); i++ {
		Lex(full[:i])
		Parse(full[:i])
	}
}

// TestInspectAndRewriteReachEveryChild: the walk visits every node of
// every expression kind in pre-order, a false return skips a node's
// children, and a rewrite replaces nodes at any depth without touching
// the original.
func TestInspectAndRewriteReachEveryChild(t *testing.T) {
	sel := parseSelect(t, `SELECT a FROM t WHERE NOT (ABS(b) IN (c, 1) AND d BETWEEN e AND f + 2) OR g IS NOT NULL`)
	var cols []string
	Inspect(sel.Where, func(e Expr) bool {
		if c, ok := e.(*ColumnRef); ok {
			cols = append(cols, c.Name)
		}
		return true
	})
	if got := strings.Join(cols, ","); got != "b,c,d,e,f,g" {
		t.Fatalf("Inspect visited columns %s, want b,c,d,e,f,g", got)
	}
	nodes := 0
	Inspect(sel.Where, func(e Expr) bool {
		nodes++
		_, isNot := e.(*NotExpr)
		return !isNot
	})
	if nodes != 4 { // OR, NOT (children skipped), IS NOT NULL, g
		t.Fatalf("Inspect with NOT's children skipped visited %d nodes, want 4", nodes)
	}
	before := sel.Where.String()
	got := Rewrite(sel.Where, func(e Expr) Expr {
		if c, ok := e.(*ColumnRef); ok {
			return &ColumnRef{Name: strings.ToUpper(c.Name)}
		}
		return e
	})
	if want := strings.ToUpper(before); !strings.EqualFold(got.String(), want) || strings.ContainsAny(got.String(), "bcdefg") {
		t.Fatalf("Rewrite gave %s, want every column upper-cased in %s", got, before)
	}
	if sel.Where.String() != before {
		t.Fatalf("Rewrite changed its input: %s, was %s", sel.Where, before)
	}
}
