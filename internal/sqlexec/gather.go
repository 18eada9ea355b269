// Distributed-aggregation planning and folding for scatter/gather
// queries. The cluster router hands PlanGather a parsed SELECT; the plan
// rewrites it into a per-shard partial-aggregate query (AVG decomposes
// into a SUM+COUNT pair so it composes exactly), and GatherAccum re-folds
// the shards' partial rows at the coordinator with SQL-parity NULL
// semantics, applies HAVING over the folded groups, and runs ORDER BY /
// LIMIT through a bounded top-k merge. It lives in this package so the
// coordinator binds HAVING and ORDER BY with the exact same resolver the
// single-node engine uses — a query that errors on one node errors
// identically on the cluster, and one that answers answers identically.
package sqlexec

import (
	"fmt"
	"sort"
	"strings"

	"odh/internal/relational"
	"odh/internal/sqlparse"
)

// finalItem produces one output column of the gathered result: a group
// key passed through from its scatter column, or an aggregate re-folded
// from the shards' partials of it.
type finalItem struct {
	name string
	kind relational.Kind
	fn   string // "" for a group key
	key  int    // group keys: position in the group's key tuple
	// src is the scatter column of the function's partial (for AVG, its SUM
	// partial; cnt is then its COUNT partial, and the item finalizes as
	// ΣSUM / ΣCOUNT).
	src, cnt int
}

// partial reads one shard row's contribution to the item as an aggregate
// state to merge. NULL partials (an aggregate over an empty shard subset)
// merge as nothing.
func (fi finalItem) partial(row Row) aggState {
	v := row[fi.src]
	switch fi.fn {
	case "COUNT":
		return aggState{count: v.AsInt()}
	case "AVG":
		return aggState{count: row[fi.cnt].AsInt(), sum: v}
	}
	return aggState{sum: v, min: v, max: v}
}

// GatherPlan is a compiled scatter/gather strategy for one SELECT.
//
// Aggregate queries scatter ShardSQL — the original query stripped of
// HAVING/ORDER BY/LIMIT, its AVG items decomposed into SUM+COUNT
// partials, and every GROUP BY key included as a (possibly hidden)
// select column so the coordinator never collapses distinct groups. The
// per-shard query keeps the aggregate-only shape, so it still rides the
// storage-level summary pushdown on each node.
//
// Non-aggregate queries with ORDER BY/LIMIT keep their original text
// (ShardSQL == ""): each shard returns its local top rows, which always
// contain the global top-k, and the coordinator re-sorts and truncates.
type GatherPlan struct {
	// ShardSQL is the rewritten per-shard query; empty means "send the
	// original query text" (concatenate-and-resort mode).
	ShardSQL string
	// Columns names the final (visible) output columns.
	Columns []string

	aggregate bool
	kinds     []string // per scatter column: the function it is a partial of, "" for a group key
	keyIdx    []int    // scatter columns that are group keys
	finals    []finalItem
	visible   int // finals[:visible] are the query's output columns

	having    boundExpr // bound against the visible output columns
	orderKeys []boundExpr
	orderDesc []bool
	limit     int // -1 when absent

	// concat-mode ORDER BY: bound lazily against the shard-reported
	// column names at first fold.
	orderItems []sqlparse.OrderItem
}

// Aggregate reports whether the plan re-folds partial aggregates (as
// opposed to concatenating and re-sorting complete rows).
func (p *GatherPlan) Aggregate() bool { return p.aggregate }

// PlanGather decides how sel composes across shards. A nil plan (with
// nil error) means plain row concatenation is already correct. An error
// means the shape does not compose and must be rejected — the message
// mirrors the single-node engine's own rejection wherever one exists, so
// cluster and single node fail identically.
func PlanGather(sel *sqlparse.SelectStmt) (*GatherPlan, error) {
	aggregated := hasAggregates(sel.Items) || len(sel.GroupBy) > 0
	if !aggregated {
		if len(sel.OrderBy) == 0 && sel.Limit < 0 {
			return nil, nil
		}
		// Complete rows concatenate; only the global ordering and bound
		// need coordinator work.
		return &GatherPlan{limit: sel.Limit, orderItems: sel.OrderBy}, nil
	}

	sh, err := classifyAggShape(sel)
	if err != nil {
		return nil, err
	}
	p := &GatherPlan{aggregate: true, limit: sel.Limit}
	var scatterItems []string
	addScatter := func(item, fn string) int {
		scatterItems = append(scatterItems, item)
		p.kinds = append(p.kinds, fn)
		if fn == "" {
			p.keyIdx = append(p.keyIdx, len(p.kinds)-1)
		}
		return len(p.kinds) - 1
	}
	shipped := make([]bool, len(sh.keys)) // GROUP BY keys present in the select list
	for _, it := range sh.items {
		fi := finalItem{name: it.name, fn: it.fn, kind: relational.KindFloat}
		switch it.fn {
		case "":
			shipped[it.key] = true
			fi.kind = relational.KindNull
			if fe, ok := it.expr.(*sqlparse.FuncExpr); ok && fe.Name == "TIME_BUCKET" {
				fi.kind = relational.KindTime
			}
			addScatter(it.expr.String(), "")
			fi.key = len(p.keyIdx) - 1
		case "AVG":
			// AVG decomposes into a SUM+COUNT pair so it composes exactly.
			fi.src = addScatter("SUM("+it.arg.String()+")", "SUM")
			fi.cnt = addScatter("COUNT("+it.arg.String()+")", "COUNT")
		case "COUNT":
			fi.kind = relational.KindInt
			fi.src = addScatter(it.expr.String(), it.fn)
		default:
			fi.src = addScatter(it.expr.String(), it.fn)
		}
		p.finals = append(p.finals, fi)
	}
	p.visible = len(p.finals)

	// GROUP BY keys absent from the select list still define groups: ship
	// them as hidden scatter columns so the fold keeps distinct groups
	// distinct, then project them away at the end.
	for i, g := range sh.keys {
		if !shipped[i] {
			addScatter(g.String(), "")
			p.finals = append(p.finals, finalItem{name: g.String(), key: len(p.keyIdx) - 1})
		}
	}

	visibleCols := make([]ColMeta, p.visible)
	p.Columns = make([]string, p.visible)
	for i, fi := range p.finals[:p.visible] {
		visibleCols[i] = ColMeta{Name: fi.name, Kind: fi.kind}
		p.Columns[i] = fi.name
	}

	// HAVING and ORDER BY bind against the visible output columns with
	// the single-node resolver: a reference the engine would reject (an
	// aggregate not in the select list, an unknown column) is rejected
	// here with the same error instead of silently widening the dialect.
	if sel.Having != nil {
		bound, err := bind(rewriteAggRefs(sel.Having, visibleCols), visibleCols)
		if err != nil {
			return nil, err
		}
		p.having = bound
	}
	for _, o := range sel.OrderBy {
		bound, err := bind(rewriteAggRefs(o.Expr, visibleCols), visibleCols)
		if err != nil {
			return nil, err
		}
		p.orderKeys = append(p.orderKeys, bound)
		p.orderDesc = append(p.orderDesc, o.Desc)
	}

	p.ShardSQL = renderShardSQL(sel, scatterItems)
	return p, nil
}

// renderShardSQL renders the per-shard partial-aggregate query: the
// rewritten select list over the original FROM/WHERE/GROUP BY, with the
// post-aggregate clauses stripped (they apply to folded groups only).
func renderShardSQL(sel *sqlparse.SelectStmt, items []string) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(strings.Join(items, ", "))
	sb.WriteString(" FROM ")
	for i, tr := range sel.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tr.Name)
		if tr.Alias != "" {
			sb.WriteString(" ")
			sb.WriteString(tr.Alias)
		}
	}
	if sel.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(sel.Where.String())
	}
	if len(sel.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range sel.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	return sb.String()
}

// GatherAccum folds per-shard partial rows under a GatherPlan. Fold may
// be called once per shard in any order; Result finalizes.
type GatherAccum struct {
	plan   *GatherPlan
	groups *aggGroups // keyed by the scatter key columns
	keys   []relational.Value

	// concat mode
	rows        []Row
	concatKeys  []boundExpr
	concatDesc  []bool
	concatBound bool
}

// NewGatherAccum builds an accumulator for plan.
func NewGatherAccum(plan *GatherPlan) *GatherAccum {
	proto := make([]aggState, len(plan.finals))
	for i, fi := range plan.finals {
		proto[i] = aggState{fn: fi.fn}
	}
	return &GatherAccum{plan: plan, groups: newAggGroups(proto), keys: make([]relational.Value, len(plan.keyIdx))}
}

// Fold merges one shard's rows. cols is the shard-reported column list;
// aggregate plans fold positionally and ignore it, concat plans use it
// to bind ORDER BY once. A concat plan keeps the rows themselves, so they
// must be the caller's own (FetchAll's), never rows lent by Result.Next.
func (a *GatherAccum) Fold(cols []string, rows []Row) error {
	if !a.plan.aggregate {
		return a.foldConcat(cols, rows)
	}
	for _, row := range rows {
		if len(row) != len(a.plan.kinds) {
			return fmt.Errorf("cluster: aggregate gather: shard row has %d columns, plan has %d", len(row), len(a.plan.kinds))
		}
		for k, i := range a.plan.keyIdx {
			a.keys[k] = row[i]
		}
		g := a.groups.group(a.keys)
		for i, fi := range a.plan.finals {
			if fi.fn != "" {
				g.states[i].merge(fi.partial(row))
			}
		}
	}
	return nil
}

func (a *GatherAccum) foldConcat(cols []string, rows []Row) error {
	if !a.concatBound && len(a.plan.orderItems) > 0 {
		meta := make([]ColMeta, len(cols))
		for i, c := range cols {
			meta[i] = ColMeta{Name: c}
		}
		for _, o := range a.plan.orderItems {
			b, err := bind(o.Expr, meta)
			if err != nil {
				return fmt.Errorf("cluster: ORDER BY %s does not compose across shards: %w", o.Expr, err)
			}
			a.concatKeys = append(a.concatKeys, b)
			a.concatDesc = append(a.concatDesc, o.Desc)
		}
		a.concatBound = true
	}
	a.rows = append(a.rows, rows...)
	return nil
}

// Result finalizes the gather: every aggregate state yields its SQL
// result, HAVING filters the folded groups, ORDER BY runs
// over the final values with a bounded top-k merge when LIMIT is set,
// and hidden columns are projected away.
func (a *GatherAccum) Result() ([]Row, error) {
	if !a.plan.aggregate {
		return a.resultConcat()
	}
	type finalRow struct {
		keys []relational.Value
		row  Row
		sort []relational.Value // pre-evaluated ORDER BY key values
	}
	// Grand-total aggregation yields one row even when no shard
	// contributed one (every shard empty, or all unavailable rows were
	// withheld by the caller before folding).
	groups := a.groups.all(len(a.plan.keyIdx) == 0)
	finals := make([]*finalRow, 0, len(groups))
	for _, g := range groups {
		row := make(Row, len(a.plan.finals))
		for i, fi := range a.plan.finals {
			if fi.fn == "" {
				row[i] = g.keys[fi.key]
			} else {
				row[i] = g.states[i].result()
			}
		}
		if a.plan.having != nil {
			v, err := a.plan.having.eval(row)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		fr := &finalRow{keys: g.keys, row: row}
		for _, k := range a.plan.orderKeys {
			v, err := k.eval(row)
			if err != nil {
				return nil, err
			}
			fr.sort = append(fr.sort, v)
		}
		finals = append(finals, fr)
	}

	// Total order: the ORDER BY keys, then the group key as tiebreak (so
	// ties at a LIMIT cutoff resolve deterministically regardless of
	// shard arrival order). Without ORDER BY, group-key order alone.
	less := func(x, y *finalRow) bool {
		for k := range a.plan.orderKeys {
			cmp := compareCoerced(x.sort[k], y.sort[k])
			if cmp == 0 {
				continue
			}
			if a.plan.orderDesc[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		for k := range x.keys {
			if cmp := relational.Compare(x.keys[k], y.keys[k]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	}

	if a.plan.limit >= 0 && a.plan.limit < len(finals) && len(a.plan.orderKeys) > 0 {
		finals = topK(finals, a.plan.limit, less)
	} else {
		sort.SliceStable(finals, func(i, j int) bool { return less(finals[i], finals[j]) })
		if a.plan.limit >= 0 && a.plan.limit < len(finals) {
			finals = finals[:a.plan.limit]
		}
	}

	out := make([]Row, len(finals))
	for i, fr := range finals {
		out[i] = fr.row[:a.plan.visible]
	}
	return out, nil
}

func (a *GatherAccum) resultConcat() ([]Row, error) {
	rows := a.rows
	if len(a.concatKeys) > 0 {
		sortVals := make([][]relational.Value, len(rows))
		for i, row := range rows {
			sortVals[i] = make([]relational.Value, len(a.concatKeys))
			for k, key := range a.concatKeys {
				v, err := key.eval(row)
				if err != nil {
					return nil, err
				}
				sortVals[i][k] = v
			}
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool {
			for k := range a.concatKeys {
				cmp := compareCoerced(sortVals[idx[x]][k], sortVals[idx[y]][k])
				if cmp == 0 {
					continue
				}
				if a.concatDesc[k] {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		sorted := make([]Row, len(rows))
		for i, j := range idx {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if a.plan.limit >= 0 && a.plan.limit < len(rows) {
		rows = rows[:a.plan.limit]
	}
	return rows, nil
}

// topK keeps the k least rows under less without sorting the full set: a
// max-heap of the current survivors whose root is the worst kept row.
// The result comes back fully sorted.
func topK[T any](items []*T, k int, less func(x, y *T) bool) []*T {
	if k <= 0 {
		return nil
	}
	heap := make([]*T, 0, k)
	// heap property: heap[parent] is NOT less than heap[child] (max-heap
	// under less), so heap[0] is the worst survivor.
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(heap[parent], heap[i]) {
				return
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	siftDown := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && less(heap[big], heap[l]) {
				big = l
			}
			if r < len(heap) && less(heap[big], heap[r]) {
				big = r
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	for _, it := range items {
		if len(heap) < k {
			heap = append(heap, it)
			siftUp(len(heap) - 1)
			continue
		}
		if less(it, heap[0]) {
			heap[0] = it
			siftDown()
		}
	}
	sort.SliceStable(heap, func(i, j int) bool { return less(heap[i], heap[j]) })
	return heap
}
