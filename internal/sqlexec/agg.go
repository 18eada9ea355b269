package sqlexec

import (
	"fmt"
	"strings"

	"odh/internal/relational"
	"odh/internal/sqlparse"
)

// aggState accumulates one aggregate function over one group. It is the
// one place SQL aggregate semantics live: NULL inputs are skipped, COUNT
// of nothing is 0 and every other aggregate of nothing is NULL. Rows
// arrive through add; partial results over disjoint row sets (a shard's
// partial aggregate, a ValueBlob summary fold) arrive through merge.
type aggState struct {
	fn       string // COUNT, SUM, AVG, MIN, MAX
	star     bool
	count    int64            // non-NULL inputs (every row for COUNT(*))
	sum      relational.Value // NULL until a non-NULL input arrives
	min, max relational.Value // likewise
}

func (a *aggState) add(v relational.Value) {
	if a.star {
		a.count++
		return
	}
	if v.IsNull() {
		return // SQL aggregates skip NULLs
	}
	if a.sum.IsNull() {
		// Rows sum up from +0.0 as blob summaries do, so a summary fold and
		// a decode-and-add agree bit for bit.
		a.sum = relational.Float(0)
	}
	a.merge(aggState{count: 1, sum: relational.Float(v.AsFloat()), min: v, max: v})
}

// merge folds in b, the same function's state over a disjoint set of rows.
// Sums of integer partials stay integral; one float partial makes the
// total a float.
func (a *aggState) merge(b aggState) {
	a.count += b.count
	switch a.fn {
	case "SUM", "AVG":
		switch {
		case b.sum.IsNull():
		case a.sum.IsNull():
			a.sum = b.sum
		case a.sum.Kind == relational.KindFloat || b.sum.Kind == relational.KindFloat:
			a.sum = relational.Float(a.sum.AsFloat() + b.sum.AsFloat())
		default:
			a.sum = relational.Int(a.sum.AsInt() + b.sum.AsInt())
		}
	case "MIN":
		if !b.min.IsNull() && (a.min.IsNull() || relational.Compare(b.min, a.min) < 0) {
			a.min = b.min
		}
	case "MAX":
		if !b.max.IsNull() && (a.max.IsNull() || relational.Compare(b.max, a.max) > 0) {
			a.max = b.max
		}
	}
}

func (a *aggState) result() relational.Value {
	switch a.fn {
	case "COUNT":
		return relational.Int(a.count)
	case "SUM":
		return a.sum
	case "AVG":
		if a.count <= 0 || a.sum.IsNull() {
			return relational.Null
		}
		return relational.Float(a.sum.AsFloat() / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return relational.Null
}

// aggItem is one output column of an aggregation: either a group-by key
// (key >= 0) or an aggregate call over an input expression.
type aggItem struct {
	name string        // output column name: the alias, else the rendering
	expr sqlparse.Expr // the select item
	key  int           // index into the GROUP BY keys; -1 for aggregates
	fn   string
	star bool
	arg  sqlparse.Expr // aggregate argument; nil for COUNT(*)
}

// aggShape is an aggregated query's select list and GROUP BY, classified
// once. The hash aggregate binds it to its input, the summary pushdown
// maps it onto an AggSpec, and the scatter/gather planner decomposes it
// into per-shard partials — none of them re-reads the statement.
type aggShape struct {
	keys  []sqlparse.Expr
	items []aggItem
}

// classifyAggShape enforces the two rules of an aggregated select list:
// no star, and every non-aggregate item names a GROUP BY expression.
func classifyAggShape(sel *sqlparse.SelectStmt) (*aggShape, error) {
	sh := &aggShape{keys: sel.GroupBy}
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlexec: SELECT * cannot be combined with aggregation")
		}
		it := aggItem{name: item.Alias, expr: item.Expr, key: -1}
		if it.name == "" {
			it.name = item.Expr.String()
		}
		if fe, ok := item.Expr.(*sqlparse.FuncExpr); ok && fe.IsAggregate() {
			it.fn, it.star = fe.Name, fe.Star
			if !fe.Star {
				it.arg = fe.Args[0]
			}
		} else {
			for i, g := range sh.keys {
				if strings.EqualFold(item.Expr.String(), g.String()) {
					it.key = i
					break
				}
			}
			if it.key < 0 {
				return nil, fmt.Errorf("sqlexec: %s must appear in GROUP BY or an aggregate", item.Expr)
			}
		}
		sh.items = append(sh.items, it)
	}
	return sh, nil
}

// aggGroup is one group's key tuple and its aggregate states.
type aggGroup struct {
	keys   []relational.Value
	states []aggState // one per output item; idle for group-key items
}

// aggGroups hash-groups aggregate states by key tuple and remembers
// first-arrival order.
type aggGroups struct {
	proto []aggState // fn/star per output item, copied into each new group
	byKey map[string]*aggGroup
	order []*aggGroup
	buf   []byte
}

func newAggGroups(proto []aggState) *aggGroups {
	return &aggGroups{proto: proto, byKey: map[string]*aggGroup{}}
}

// group finds or creates the group of a key tuple (copied on creation).
// The map key spells each value's rendering and kind, so 1 and '1' and
// 1.0 stay distinct groups.
func (t *aggGroups) group(keys []relational.Value) *aggGroup {
	t.buf = t.buf[:0]
	for _, v := range keys {
		t.buf = append(v.AppendText(t.buf), 0)
		t.buf = append(append(t.buf, v.Kind.String()...), 1)
	}
	g, ok := t.byKey[string(t.buf)]
	if !ok {
		g = &aggGroup{
			keys:   append([]relational.Value(nil), keys...),
			states: append([]aggState(nil), t.proto...),
		}
		t.byKey[string(t.buf)] = g
		t.order = append(t.order, g)
	}
	return g
}

// all returns the groups in first-arrival order. A grand total (no group
// keys) yields one group even over empty input.
func (t *aggGroups) all(grandTotal bool) []*aggGroup {
	if grandTotal && len(t.order) == 0 {
		t.group(nil)
	}
	return t.order
}

// aggregateOp hash-groups its input and emits one row per group. In a
// cluster gather its input is the shards' partial rows, and merge, per
// item, says where each aggregate's partial sits in them.
type aggregateOp struct {
	child Operator
	shape *aggShape
	keys  picks       // the group-by keys
	args  picks       // per item: the aggregate argument; NULL for COUNT(*) and a key
	merge []finalItem // set in a gather: merge partials instead of adding args
	cols  []ColMeta
	done  bool
	out   []Row
	i     int
}

func (a *aggregateOp) Columns() []ColMeta { return a.cols }
func (a *aggregateOp) BlobBytes() int64   { return a.child.BlobBytes() }

func (a *aggregateOp) run() error {
	proto := make([]aggState, len(a.shape.items))
	for i, item := range a.shape.items {
		proto[i] = aggState{fn: item.fn, star: item.star}
	}
	groups := newAggGroups(proto)
	keyVals := make(Row, len(a.keys.ords))
	argVals := make(Row, len(a.args.ords))
	for {
		row, ok, err := a.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := a.keys.fill(keyVals, row); err != nil {
			return err
		}
		g := groups.group(keyVals)
		if a.merge == nil {
			if err := a.args.fill(argVals, row); err != nil {
				return err
			}
		}
		for i, item := range a.shape.items {
			switch {
			case item.key >= 0:
			case a.merge != nil:
				g.states[i].merge(a.merge[i].partial(row))
			default:
				g.states[i].add(argVals[i]) // COUNT(*) counts the row itself
			}
		}
	}
	for _, g := range groups.all(len(a.keys.ords) == 0) {
		row := make(Row, len(a.shape.items))
		for i, item := range a.shape.items {
			if item.key >= 0 {
				row[i] = g.keys[item.key]
			} else {
				row[i] = g.states[i].result()
			}
		}
		a.out = append(a.out, row)
	}
	a.done = true
	return nil
}

func (a *aggregateOp) Next() (Row, bool, error) {
	if !a.done {
		if err := a.run(); err != nil {
			return nil, false, err
		}
	}
	if a.i >= len(a.out) {
		return nil, false, nil
	}
	row := a.out[a.i]
	a.i++
	return row, true, nil
}

func (a *aggregateOp) Describe(indent string) string {
	return fmt.Sprintf("%sAggregate(%d keys, %d columns)\n%s",
		indent, len(a.keys.ords), len(a.shape.items), a.child.Describe(indent+"  "))
}

// hasAggregates reports whether any select item contains an aggregate call.
func hasAggregates(items []sqlparse.SelectItem) bool {
	found := false
	for _, item := range items {
		sqlparse.Inspect(item.Expr, func(e sqlparse.Expr) bool {
			if f, ok := e.(*sqlparse.FuncExpr); ok && f.IsAggregate() {
				found = true
			}
			return !found
		})
	}
	return found
}
