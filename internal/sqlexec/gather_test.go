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

func mustPlan(t testing.TB, sql string) *GatherPlan {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := PlanGather(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatalf("PlanGather %q: %v", sql, err)
	}
	return plan
}

// TestPlanGatherShapes pins the plan surface: which queries concatenate,
// which re-fold, how AVG decomposes, and where hidden keys appear.
func TestPlanGatherShapes(t *testing.T) {
	stmt, err := sqlparse.Parse(`SELECT a, b FROM t WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanGather(stmt.(*sqlparse.SelectStmt))
	if err != nil || plan != nil {
		t.Fatalf("plain select: plan=%v err=%v, want nil/nil", plan, err)
	}

	plan = mustPlan(t, `SELECT a, b FROM t ORDER BY b DESC LIMIT 3`)
	if plan.Aggregate() || plan.ShardSQL != "" || len(plan.sel.OrderBy) != 1 || plan.sel.Limit != 3 {
		t.Fatalf("concat-resort plan wrong: %+v", plan)
	}

	plan = mustPlan(t, `SELECT id, AVG(x) FROM t WHERE x > 0 GROUP BY id`)
	if !plan.Aggregate() {
		t.Fatal("AVG plan not aggregate")
	}
	want := `SELECT id, SUM(x), COUNT(x) FROM t WHERE (x > 0) GROUP BY id`
	if plan.ShardSQL != want {
		t.Fatalf("AVG shard SQL = %q, want %q", plan.ShardSQL, want)
	}
	if len(plan.Columns) != 2 || plan.Columns[0] != "id" || plan.Columns[1] != "AVG(x)" {
		t.Fatalf("AVG columns = %v", plan.Columns)
	}
	if _, err := sqlparse.Parse(plan.ShardSQL); err != nil {
		t.Fatalf("shard SQL does not re-parse: %v", err)
	}

	// A GROUP BY key missing from the select list ships as a hidden
	// scatter column so distinct groups stay distinct at the fold.
	plan = mustPlan(t, `SELECT COUNT(*) FROM t GROUP BY id`)
	if want := `SELECT COUNT(*), id FROM t GROUP BY id`; plan.ShardSQL != want {
		t.Fatalf("hidden-key shard SQL = %q, want %q", plan.ShardSQL, want)
	}
	if len(plan.Columns) != 1 || len(plan.finals) != 2 {
		t.Fatalf("hidden-key plan: cols=%v finals=%d", plan.Columns, len(plan.finals))
	}

	// Shapes the single-node engine rejects are rejected at plan time
	// with the engine's own errors.
	for _, q := range []string{
		`SELECT x, COUNT(*) FROM t GROUP BY id`,
		`SELECT id FROM t GROUP BY id HAVING SUM(x) > 1`,
		`SELECT id, COUNT(*) FROM t GROUP BY id ORDER BY SUM(x)`,
		`SELECT *, COUNT(*) FROM t`,
	} {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := PlanGather(stmt.(*sqlparse.SelectStmt)); err == nil {
			t.Fatalf("PlanGather accepted %q", q)
		}
	}
}

// TestGatherFoldGrandTotalEmpty pins the SQL zero-row answer: a
// grand-total aggregate over shards that all returned nothing still
// yields one row (COUNT 0, everything else NULL).
func TestGatherFoldGrandTotalEmpty(t *testing.T) {
	plan := mustPlan(t, `SELECT COUNT(*), SUM(x), MIN(x), AVG(x) FROM t`)
	acc := NewGatherAccum(plan)
	if err := acc.Fold(nil, nil); err != nil {
		t.Fatal(err)
	}
	rows, err := acc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("empty grand total: %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r[0].Kind != relational.KindInt || r[0].AsInt() != 0 {
		t.Fatalf("COUNT over nothing = %v, want 0", r[0])
	}
	for i := 1; i < 4; i++ {
		if !r[i].IsNull() {
			t.Fatalf("cell %d over nothing = %v, want NULL", i, r[i])
		}
	}
}

// --- fuzz scenario machinery ---

// fuzzSrc is a deterministic byte cursor; exhausted input yields zeros.
type fuzzSrc struct {
	data []byte
	i    int
}

func (s *fuzzSrc) next() byte {
	if s.i >= len(s.data) {
		return 0
	}
	v := s.data[s.i]
	s.i++
	return v
}

const (
	fzCountStar = iota
	fzCountV
	fzSumV
	fzMinV
	fzMaxV
	fzAvgV
	fzAggKinds
)

// fuzzScenario is a randomized-but-valid distributed aggregation: the
// SQL shape, the scatter column layout it implies, and domain-valid
// per-shard partial rows (NULL partials, NaN sums, empty shards,
// duplicate group keys across shards all reachable).
type fuzzScenario struct {
	nKeys   int  // selected group keys k0..k{n-1}
	hidden  bool // extra GROUP BY key kh not in the select list
	aggs    []int
	having  bool // HAVING COUNT(*) > havingN (aggs[0] is COUNT(*))
	havingN int
	order   int // 0 none, 1 ORDER BY first key, 2 ORDER BY COUNT(*) DESC
	limit   int // -1 none
	shards  [][]Row
}

func decodeScenario(s *fuzzSrc) *fuzzScenario {
	sc := &fuzzScenario{
		nKeys:  int(s.next()) % 3,
		hidden: s.next()%2 == 1,
	}
	nAggs := 1 + int(s.next())%3
	sc.aggs = append(sc.aggs, fzCountStar) // anchor for HAVING
	for i := 1; i < nAggs; i++ {
		// Never a second COUNT(*): duplicate output names make
		// HAVING/ORDER BY references ambiguous (on single node too).
		sc.aggs = append(sc.aggs, 1+int(s.next())%(fzAggKinds-1))
	}
	sc.having = s.next()%2 == 1
	sc.havingN = int(s.next()) % 4
	sc.order = int(s.next()) % 3
	if sc.order == 1 && sc.nKeys == 0 {
		sc.order = 2
	}
	sc.limit = -1
	if s.next()%2 == 1 {
		sc.limit = int(s.next()) % 5
	}

	// scatter layout: keys, then per-agg cells (AVG = sum+count pair),
	// then the hidden key.
	nShards := 1 + int(s.next())%4
	for sh := 0; sh < nShards; sh++ {
		nRows := int(s.next()) % 5
		var rows []Row
		for r := 0; r < nRows; r++ {
			var row Row
			for k := 0; k < sc.nKeys; k++ {
				row = append(row, relational.Int(int64(s.next()%3)))
			}
			for _, a := range sc.aggs {
				switch a {
				case fzCountStar, fzCountV:
					row = append(row, relational.Int(int64(s.next()%4)))
				case fzSumV, fzMinV, fzMaxV:
					row = append(row, fuzzPartialValue(s))
				default: // fzAvgV: SUM(v), COUNT(v) pair
					cnt := int64(s.next() % 4)
					if cnt == 0 {
						row = append(row, relational.Null, relational.Int(0))
					} else {
						row = append(row, fuzzNonNull(s), relational.Int(cnt))
					}
				}
			}
			if sc.hidden {
				row = append(row, relational.Int(int64(s.next()%2)))
			}
			rows = append(rows, row)
		}
		sc.shards = append(sc.shards, rows)
	}
	return sc
}

func fuzzPartialValue(s *fuzzSrc) relational.Value {
	switch s.next() % 5 {
	case 0:
		return relational.Null
	case 1:
		return relational.Float(math.NaN())
	case 2:
		return relational.Int(int64(s.next()) - 128)
	default:
		return relational.Float(float64(int64(s.next()) - 128))
	}
}

func fuzzNonNull(s *fuzzSrc) relational.Value {
	if s.next()%5 == 0 {
		return relational.Float(math.NaN())
	}
	return relational.Float(float64(int64(s.next()) - 128))
}

func (sc *fuzzScenario) sql() string {
	var items []string
	for k := 0; k < sc.nKeys; k++ {
		items = append(items, fmt.Sprintf("k%d", k))
	}
	for i, a := range sc.aggs {
		switch a {
		case fzCountStar:
			items = append(items, "COUNT(*)")
		case fzCountV:
			items = append(items, fmt.Sprintf("COUNT(v%d)", i))
		case fzSumV:
			items = append(items, fmt.Sprintf("SUM(v%d)", i))
		case fzMinV:
			items = append(items, fmt.Sprintf("MIN(v%d)", i))
		case fzMaxV:
			items = append(items, fmt.Sprintf("MAX(v%d)", i))
		default:
			items = append(items, fmt.Sprintf("AVG(v%d)", i))
		}
	}
	var group []string
	for k := 0; k < sc.nKeys; k++ {
		group = append(group, fmt.Sprintf("k%d", k))
	}
	if sc.hidden {
		group = append(group, "kh")
	}
	q := "SELECT " + strings.Join(items, ", ") + " FROM t"
	if len(group) > 0 {
		q += " GROUP BY " + strings.Join(group, ", ")
	}
	if sc.having {
		q += fmt.Sprintf(" HAVING COUNT(*) > %d", sc.havingN)
	}
	switch sc.order {
	case 1:
		q += " ORDER BY k0"
	case 2:
		q += " ORDER BY COUNT(*) DESC"
	}
	if sc.limit >= 0 {
		q += fmt.Sprintf(" LIMIT %d", sc.limit)
	}
	return q
}

// scatterWidth is the per-shard row arity the scenario's layout implies.
func (sc *fuzzScenario) scatterWidth() int {
	w := sc.nKeys
	for _, a := range sc.aggs {
		if a == fzAvgV {
			w += 2
		} else {
			w++
		}
	}
	if sc.hidden {
		w++
	}
	return w
}

// referenceFold is the decode-and-group oracle: flatten every shard's
// partial rows in shard order, group by the full key tuple, fold each
// group's cells positionally with SQL NULL semantics, finalize AVG,
// apply HAVING, sort fully (ORDER BY keys then group-key tiebreak) and
// truncate to LIMIT. Deliberately naive — no incremental map merge, no
// top-k — so it cannot share a bug with GatherAccum's structure.
func (sc *fuzzScenario) referenceFold() []Row {
	nKeysTotal := sc.nKeys
	if sc.hidden {
		nKeysTotal++
	}
	width := sc.scatterWidth()
	hiddenIdx := width - 1 // only valid when sc.hidden

	type group struct {
		keys []relational.Value
		rows []Row
	}
	var order []string
	groups := map[string]*group{}
	for _, shard := range sc.shards {
		for _, row := range shard {
			var kb strings.Builder
			var keys []relational.Value
			for k := 0; k < sc.nKeys; k++ {
				keys = append(keys, row[k])
			}
			if sc.hidden {
				keys = append(keys, row[hiddenIdx])
			}
			for _, kv := range keys {
				fmt.Fprintf(&kb, "%v|%s\x00", kv.Kind, kv.String())
			}
			g, ok := groups[kb.String()]
			if !ok {
				g = &group{keys: keys}
				groups[kb.String()] = g
				order = append(order, kb.String())
			}
			g.rows = append(g.rows, row)
		}
	}
	if nKeysTotal == 0 && len(groups) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	type out struct {
		keys []relational.Value
		row  Row
		cnt  int64 // aggs[0] = COUNT(*), for HAVING
	}
	var outs []*out
	for _, gk := range order {
		g := groups[gk]
		o := &out{keys: g.keys}
		for k := 0; k < sc.nKeys; k++ {
			o.row = append(o.row, g.keys[k])
		}
		col := sc.nKeys
		for ai, a := range sc.aggs {
			switch a {
			case fzCountStar, fzCountV:
				var n int64
				for _, r := range g.rows {
					n += r[col].AsInt()
				}
				if ai == 0 {
					o.cnt = n
				}
				o.row = append(o.row, relational.Int(n))
				col++
			case fzSumV:
				o.row = append(o.row, refSum(g.rows, col))
				col++
			case fzMinV, fzMaxV:
				acc := relational.Null
				for _, r := range g.rows {
					v := r[col]
					if v.IsNull() {
						continue
					}
					if acc.IsNull() {
						acc = v
						continue
					}
					cmp := relational.Compare(v, acc)
					if (a == fzMinV && cmp < 0) || (a == fzMaxV && cmp > 0) {
						acc = v
					}
				}
				o.row = append(o.row, acc)
				col++
			default: // fzAvgV
				sum := refSum(g.rows, col)
				var cnt int64
				for _, r := range g.rows {
					cnt += r[col+1].AsInt()
				}
				if cnt <= 0 || sum.IsNull() {
					o.row = append(o.row, relational.Null)
				} else {
					o.row = append(o.row, relational.Float(sum.AsFloat()/float64(cnt)))
				}
				col += 2
			}
		}
		if sc.having && o.cnt <= int64(sc.havingN) {
			continue
		}
		outs = append(outs, o)
	}

	countIdx := sc.nKeys // first agg column = COUNT(*)
	sort.SliceStable(outs, func(i, j int) bool {
		x, y := outs[i], outs[j]
		switch sc.order {
		case 1:
			if cmp := relational.Compare(x.row[0], y.row[0]); cmp != 0 {
				return cmp < 0
			}
		case 2:
			if cmp := relational.Compare(x.row[countIdx], y.row[countIdx]); cmp != 0 {
				return cmp > 0
			}
		}
		for k := range x.keys {
			if cmp := relational.Compare(x.keys[k], y.keys[k]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	rows := make([]Row, len(outs))
	for i, o := range outs {
		rows[i] = o.row
	}
	if sc.limit >= 0 && sc.limit < len(rows) {
		rows = rows[:sc.limit]
	}
	return rows
}

// refSum folds one column's SUM partials with the coordinator's
// promotion rule: NULLs skipped, any float partial makes the total a
// float, an all-int fold stays integral.
func refSum(rows []Row, col int) relational.Value {
	acc := relational.Null
	for _, r := range rows {
		v := r[col]
		if v.IsNull() {
			continue
		}
		if acc.IsNull() {
			acc = v
			continue
		}
		if acc.Kind == relational.KindFloat || v.Kind == relational.KindFloat {
			acc = relational.Float(acc.AsFloat() + v.AsFloat())
		} else {
			acc = relational.Int(acc.AsInt() + v.AsInt())
		}
	}
	return acc
}

func renderGatherRows(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%v:%s", v.Kind, v.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FuzzGatherFold drives GatherAccum with randomized domain-valid
// partial rows — NULL partials, NaN sums, empty shards, duplicate group
// keys (dup TIME_BUCKETs across shards fold the same way), hidden keys,
// HAVING, ORDER BY, LIMIT — and checks the fold byte-for-byte against
// the decode-and-group reference.
func FuzzGatherFold(f *testing.F) {
	f.Add([]byte{})                                  // degenerate: grand total over zero shards
	f.Add([]byte{1, 1, 2, 3, 0, 1, 0, 1, 3, 2, 3})   // keys + HAVING + limit
	f.Add([]byte{0, 0, 3, 5, 1, 2, 2, 1, 2, 4, 2, 0, // AVG with zero-count pairs
		3, 1, 0, 1, 1, 0, 0, 2})
	f.Add([]byte{2, 1, 3, 5, 3, 4, 0, 0, 2, 1, 1, 4, // NaN-heavy, dup keys
		4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2, 1, 0, 4, 0, 4, 4, // empty shards then data
		0, 0, 0, 0, 3, 2, 2, 2, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScenario(&fuzzSrc{data: data})
		sql := sc.sql()
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("generated SQL %q does not parse: %v", sql, err)
		}
		plan, err := PlanGather(stmt.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatalf("PlanGather(%q): %v", sql, err)
		}
		if plan == nil || !plan.Aggregate() {
			t.Fatalf("PlanGather(%q): not an aggregate plan", sql)
		}
		if len(plan.scatter) != sc.scatterWidth() {
			t.Fatalf("scatter layout drifted: plan has %d columns, scenario %d (%q)",
				len(plan.scatter), sc.scatterWidth(), sql)
		}
		if _, err := sqlparse.Parse(plan.ShardSQL); err != nil {
			t.Fatalf("shard SQL %q does not re-parse: %v", plan.ShardSQL, err)
		}

		acc := NewGatherAccum(plan)
		for _, shard := range sc.shards {
			if err := acc.Fold(nil, shard); err != nil {
				t.Fatalf("fold(%q): %v", sql, err)
			}
		}
		got, err := acc.Result()
		if err != nil {
			t.Fatalf("result(%q): %v", sql, err)
		}
		// The reference emits exactly the visible columns (hidden keys
		// never enter its output rows).
		want := sc.referenceFold()
		if g, w := renderGatherRows(got), renderGatherRows(want); g != w {
			t.Fatalf("fold mismatch for %q\nshards: %v\ngot:\n%s\nwant:\n%s", sql, sc.shards, g, w)
		}
	})
}
