// Distributed-aggregation planning and folding for scatter/gather
// queries. The cluster router hands PlanGather a parsed SELECT; the plan
// rewrites it into a per-shard partial-aggregate query (AVG decomposes
// into a SUM+COUNT pair so it composes exactly, and every GROUP BY key
// ships, hidden if the select list lacks it). GatherAccum finishes the
// scatter with the single-node engine's own operators: the shards' rows,
// in shard order, feed an aggregateOp that merges the partials with
// aggState's SQL NULL rules, a sort into group-key order and a projection
// that drops the hidden keys; then selectTail, the engine's HAVING, ORDER
// BY and LIMIT. A row query with ORDER BY or LIMIT runs its rows through
// that same tail. So a query that errors on one node errors identically
// on the cluster, and one that answers answers identically.
package sqlexec

import (
	"fmt"
	"strings"

	"odh/internal/sqlparse"
)

// finalItem locates one gathered column in a shard row: a group key's
// scatter column, or an aggregate's partial of it.
type finalItem struct {
	fn string // "" for a group key
	// src is the scatter column of the item (for AVG, its SUM partial; cnt
	// is then its COUNT partial, and the item finalizes as ΣSUM / ΣCOUNT).
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

	sel *sqlparse.SelectStmt // its HAVING, ORDER BY and LIMIT run in selectTail

	// Aggregate mode only: the shard row's columns, the select list
	// followed by the hidden GROUP BY keys, each of those items' place in
	// a shard row, and per GROUP BY key its scatter column.
	scatter []ColMeta
	shape   *aggShape
	finals  []finalItem
	keys    []int // -1 until an item ships the key
}

// Aggregate reports whether the plan re-folds partial aggregates (as
// opposed to concatenating and re-sorting complete rows).
func (p *GatherPlan) Aggregate() bool { return p.shape != nil }

// PlanGather decides how sel composes across shards. A nil plan (with
// nil error) means plain row concatenation is already correct. An error
// means the shape does not compose and must be rejected — the message
// mirrors the single-node engine's own rejection wherever one exists, so
// cluster and single node fail identically.
func PlanGather(sel *sqlparse.SelectStmt) (*GatherPlan, error) {
	if !hasAggregates(sel.Items) && len(sel.GroupBy) == 0 {
		if len(sel.OrderBy) == 0 && sel.Limit < 0 {
			return nil, nil
		}
		// Complete rows concatenate; only the global ordering and bound
		// need coordinator work.
		return &GatherPlan{sel: sel}, nil
	}

	sh, err := classifyAggShape(sel)
	if err != nil {
		return nil, err
	}
	p := &GatherPlan{sel: sel, shape: &aggShape{keys: sh.keys}, keys: make([]int, len(sh.keys))}
	for i := range p.keys {
		p.keys[i] = -1
	}
	addScatter := func(item string) int {
		p.scatter = append(p.scatter, ColMeta{Name: item})
		return len(p.scatter) - 1
	}
	addItem := func(it aggItem, fi finalItem) {
		if it.key >= 0 && p.keys[it.key] < 0 {
			p.keys[it.key] = fi.src
		}
		p.shape.items = append(p.shape.items, it)
		p.finals = append(p.finals, fi)
	}
	for _, it := range sh.items {
		fi := finalItem{fn: it.fn}
		if it.fn == "AVG" {
			fi.src = addScatter("SUM(" + it.arg.String() + ")")
			fi.cnt = addScatter("COUNT(" + it.arg.String() + ")")
		} else {
			fi.src = addScatter(it.expr.String())
		}
		addItem(it, fi)
		p.Columns = append(p.Columns, it.name)
	}
	// GROUP BY keys absent from the select list still define groups: ship
	// them as hidden scatter columns so the fold keeps distinct groups
	// distinct, then project them away at the end.
	for i, g := range sh.keys {
		if p.keys[i] < 0 {
			addItem(aggItem{name: g.String(), expr: g, key: i}, finalItem{src: addScatter(g.String())})
		}
	}

	// HAVING and ORDER BY bind against the visible output columns in the
	// single-node tail: a reference the engine would reject (an aggregate
	// not in the select list, an unknown column) is rejected here, before
	// any shard is asked, with the same error.
	if _, err := selectTail(p.fold(&rowsOp{cols: p.scatter}), sel, true); err != nil {
		return nil, err
	}
	p.ShardSQL = renderShardSQL(sel, p.scatter)
	return p, nil
}

// fold stacks the re-fold on the shard rows: the aggregate merges each
// item's partials into its group, a stable sort puts the groups in
// group-key order — so the tail's stable ORDER BY breaks its ties by group
// key, whatever order the shards answered in — and a projection drops the
// hidden keys.
func (p *GatherPlan) fold(shardRows Operator) Operator {
	agg := &aggregateOp{child: shardRows, shape: p.shape, keys: picks{ords: p.keys}, merge: p.finals}
	byKey := &sortOp{child: agg}
	visible := &projectOp{child: byKey}
	for i, it := range p.shape.items {
		agg.cols = append(agg.cols, ColMeta{Name: it.name})
		if it.key >= 0 {
			byKey.keys.add(boundCol{i})
			byKey.desc = append(byKey.desc, false)
		}
		if i < len(p.Columns) {
			visible.items.add(boundCol{i})
		}
	}
	visible.cols = agg.cols[:len(p.Columns)]
	return visible
}

// renderShardSQL renders the per-shard partial-aggregate query: the
// rewritten select list over the original FROM/WHERE/GROUP BY, with the
// post-aggregate clauses stripped (they apply to folded groups only).
func renderShardSQL(sel *sqlparse.SelectStmt, items []ColMeta) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Name)
	}
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

// rowsOp serves the rows it holds, in order: a gather's shard rows.
type rowsOp struct {
	cols []ColMeta
	rows []Row
	i    int
}

func (r *rowsOp) Columns() []ColMeta { return r.cols }
func (r *rowsOp) BlobBytes() int64   { return 0 }

func (r *rowsOp) Next() (Row, bool, error) {
	if r.i >= len(r.rows) {
		return nil, false, nil
	}
	r.i++
	return r.rows[r.i-1], true, nil
}

func (r *rowsOp) Describe(indent string) string {
	return fmt.Sprintf("%sRows(%d)\n", indent, len(r.rows))
}

// GatherAccum collects per-shard rows under a GatherPlan. Fold may be
// called once per shard in any order; Result finalizes.
type GatherAccum struct {
	plan *GatherPlan
	cols []ColMeta // the shard rows' columns; nil until a concat fold names them
	rows []Row
}

// NewGatherAccum builds an accumulator for plan.
func NewGatherAccum(plan *GatherPlan) *GatherAccum {
	return &GatherAccum{plan: plan, cols: plan.scatter}
}

// Fold takes one shard's rows. cols is the shard-reported column list;
// aggregate plans read partials by position and ignore it, concat plans
// bind ORDER BY against it. The accumulator keeps the rows themselves, so
// they must be the caller's own (FetchAll's), never rows lent by
// Result.Next.
func (a *GatherAccum) Fold(cols []string, rows []Row) error {
	if a.plan.Aggregate() {
		for _, row := range rows {
			if len(row) != len(a.plan.scatter) {
				return fmt.Errorf("cluster: aggregate gather: shard row has %d columns, plan has %d", len(row), len(a.plan.scatter))
			}
		}
	} else if a.cols == nil {
		a.cols = make([]ColMeta, len(cols))
		for i, c := range cols {
			a.cols[i] = ColMeta{Name: c}
		}
	}
	a.rows = append(a.rows, rows...)
	return nil
}

// Result finalizes the gather through the plan's operators (see the
// package comment). A grand total yields one row even when no shard
// contributed one (every shard empty, or all unavailable rows were
// withheld by the caller before folding).
func (a *GatherAccum) Result() ([]Row, error) {
	aggregate := a.plan.Aggregate()
	var root Operator = &rowsOp{cols: a.cols, rows: a.rows}
	if aggregate {
		root = a.plan.fold(root)
	} else if a.cols == nil {
		return nil, nil // no shard answered
	}
	root, err := selectTail(root, a.plan.sel, aggregate)
	if err != nil {
		// An aggregate plan bound its tail already; a row query's ORDER BY
		// binds to the shards' column names only now.
		return nil, fmt.Errorf("cluster: ORDER BY does not compose across shards: %w", err)
	}
	return (&Result{root: root}).FetchAll()
}
