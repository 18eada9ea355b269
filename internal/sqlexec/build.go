package sqlexec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"odh/internal/sqlparse"
)

// buildScan constructs the access operator for one table plus its filter.
func (pc *planContext) buildScan(acc *tableAccess) (Operator, error) {
	var op Operator
	switch {
	case acc.src.isVirtual():
		op = pc.newVirtualScan(acc)
	case acc.index == nil:
		op = newRelSeqScan(acc.src.rel, acc.src.binding())
	case acc.prefixVals != nil:
		op = newRelIndexPrefix(acc.src.rel, acc.index, acc.src.binding(), acc.prefixVals)
	default:
		op = newRelIndexRange(acc.src.rel, acc.index, acc.src.binding(), acc.rangeLo, acc.rangeHi)
	}
	return pc.applyFilter(op, acc.rowFilter(false))
}

// applyFilter wraps op with the given conjuncts (no-op for none).
func (pc *planContext) applyFilter(op Operator, conjuncts []sqlparse.Expr) (Operator, error) {
	if len(conjuncts) == 0 {
		return op, nil
	}
	pred := sqlparse.JoinConjuncts(conjuncts)
	bound, err := bind(pred, op.Columns())
	if err != nil {
		return nil, err
	}
	return &filterOp{child: op, pred: bound, desc: pred.String()}, nil
}

// buildJoinTree picks a join order and operators for the FROM set. At most
// one virtual table may participate (the paper's fused queries join one
// virtual table with relational dimension tables).
func (pc *planContext) buildJoinTree() (Operator, error) {
	var virtual *tableSource
	for _, src := range pc.sources {
		if src.isVirtual() {
			if virtual != nil {
				return nil, fmt.Errorf("sqlexec: at most one virtual table per query is supported")
			}
			virtual = src
		}
	}
	if len(pc.sources) == 1 {
		return pc.buildScan(pc.access[pc.sources[0].binding()])
	}
	if virtual == nil {
		return pc.buildRelationalJoins(pc.sources)
	}
	return pc.buildFusedJoins(virtual)
}

// buildRelationalJoins greedily joins relational tables: cheapest table
// first, then connected tables via index nested-loop (when the inner has a
// matching index) or hash join.
func (pc *planContext) buildRelationalJoins(sources []*tableSource) (Operator, error) {
	// Seed with the cheapest access.
	seed := sources[0]
	for _, src := range sources {
		if pc.access[src.binding()].estCost < pc.access[seed.binding()].estCost {
			seed = src
		}
	}
	cur, err := pc.buildScan(pc.access[seed.binding()])
	if err != nil {
		return nil, err
	}
	return pc.joinRest(cur, map[string]bool{seed.binding(): true}, sources, true)
}

// joinRest joins every source not yet in joined onto cur along the
// equijoin predicates. indexNL lets a table with an index on its join
// column and no filter of its own be probed per outer row instead of
// hashed.
func (pc *planContext) joinRest(cur Operator, joined map[string]bool, sources []*tableSource, indexNL bool) (Operator, error) {
	remaining := map[string]*tableSource{}
	for _, src := range sources {
		if !joined[src.binding()] {
			remaining[src.binding()] = src
		}
	}
	for len(remaining) > 0 {
		jp, next := pc.nextJoin(joined, remaining)
		if next == nil {
			// Disconnected table: a cross join is not supported; reject
			// clearly.
			return nil, fmt.Errorf("sqlexec: no join predicate connects table %q", anyKey(remaining))
		}
		var err error
		if cur, err = pc.joinOnto(cur, jp, next, indexNL); err != nil {
			return nil, err
		}
		joined[next.binding()] = true
		delete(remaining, next.binding())
	}
	return cur, nil
}

// joinOnto joins next onto cur along jp, whose left side is already in cur.
func (pc *planContext) joinOnto(cur Operator, jp joinPred, next *tableSource, indexNL bool) (Operator, error) {
	outerOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: jp.leftBind, Name: jp.leftCol}, cur.Columns())
	if err != nil {
		return nil, err
	}
	acc := pc.access[next.binding()]
	if indexNL && len(acc.conjuncts) == 0 {
		for _, idx := range next.rel.Indexes() {
			if strings.EqualFold(next.rel.Columns()[idx.ColumnOrdinals()[0]].Name, jp.rightCol) {
				return newNLRelJoin(cur, next.rel, idx, next.binding(), outerOrd), nil
			}
		}
	}
	inner, err := pc.buildScan(acc)
	if err != nil {
		return nil, err
	}
	innerOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: next.binding(), Name: jp.rightCol}, inner.Columns())
	if err != nil {
		return nil, err
	}
	return newHashJoin(cur, inner, outerOrd, innerOrd), nil
}

func anyKey(m map[string]*tableSource) string {
	for k := range m {
		return k
	}
	return ""
}

// nextJoin finds a join predicate connecting the joined set to a remaining
// table, oriented so its left side is the joined one.
func (pc *planContext) nextJoin(joined map[string]bool, remaining map[string]*tableSource) (joinPred, *tableSource) {
	for _, jp := range pc.joins {
		if src, ok := remaining[jp.rightBind]; ok && joined[jp.leftBind] {
			return jp, src
		}
		if src, ok := remaining[jp.leftBind]; ok && joined[jp.rightBind] {
			return jp.flipped(), src
		}
	}
	return joinPred{}, nil
}

// buildFusedJoins plans a query joining one virtual table with relational
// tables. It costs the paper's two plan families and picks the cheaper:
//
//	relational-first: filter the relational side, then drive per-source
//	historical scans of the virtual table through the id join key;
//	operational-first: slice-scan the virtual table for the time window,
//	then hash-join the relational side onto it.
func (pc *planContext) buildFusedJoins(virtual *tableSource) (Operator, error) {
	vAcc := pc.access[virtual.binding()]
	// Find the join predicate binding the virtual table's id, oriented so
	// its left side is the virtual id.
	var vJoin *joinPred
	for _, jp := range pc.joins {
		if jp.rightBind == virtual.binding() {
			jp = jp.flipped()
		}
		if jp.leftBind == virtual.binding() && strings.EqualFold(jp.leftCol, virtual.schema.IDColumn()) {
			vJoin = &jp
			break
		}
	}
	if vJoin == nil {
		return nil, fmt.Errorf("sqlexec: fused query must join the virtual table on its id column")
	}

	var relSources []*tableSource
	for _, src := range pc.sources {
		if !src.isVirtual() {
			relSources = append(relSources, src)
		}
	}

	// Estimate driving rows: the relational table joined to the virtual
	// id, scaled by the selectivity of every other relational table in
	// the join chain (a filter on CUSTOMER thins the ACCOUNT rows that
	// reach the virtual join — TQ4's shape).
	driver := pc.byBind[vJoin.rightBind]
	driverAcc := pc.access[driver.binding()]
	drivingRows := driverAcc.estRows
	for _, src := range relSources {
		acc := pc.access[src.binding()]
		if rows := float64(src.rel.RowCount()); src != driver && rows > 0 && acc.estRows < rows {
			drivingRows *= acc.estRows / rows
		}
	}
	drivingRows = math.Max(drivingRows, 1)

	costRelFirst := driverAcc.estCost + drivingRows*vAcc.virt.byID(1).total()
	costOpFirst := vAcc.estCost + float64(driver.rel.RowCount())*8

	if costRelFirst <= costOpFirst {
		pc.planNote = fmt.Sprintf("plan=relational-first cost=%.0f (alternative operational-first=%.0f)", costRelFirst, costOpFirst)
		rel, err := pc.buildRelationalJoins(relSources)
		if err != nil {
			return nil, err
		}
		outerOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: vJoin.rightBind, Name: vJoin.rightCol}, rel.Columns())
		if err != nil {
			return nil, err
		}
		// The join re-aims the selection, so an id conjunct stays a filter.
		return pc.applyFilter(newNLVirtualJoin(rel, pc.newVirtualScan(vAcc), outerOrd), vAcc.rowFilter(true))
	}

	pc.planNote = fmt.Sprintf("plan=operational-first cost=%.0f (alternative relational-first=%.0f)", costOpFirst, costRelFirst)
	vScan, err := pc.buildScan(vAcc)
	if err != nil {
		return nil, err
	}
	// Hash-join each relational table onto the stream: the driver first, on
	// the virtual id, then the rest by their join predicates.
	cur, err := pc.joinOnto(vScan, *vJoin, driver, false)
	if err != nil {
		return nil, err
	}
	return pc.joinRest(cur, map[string]bool{virtual.binding(): true, driver.binding(): true}, relSources, false)
}

// buildSelectCtx compiles a full SELECT into an operator tree. ctx is
// threaded into every virtual-table scan the plan contains, so canceling
// it stops the tsstore workers mid-scan.
func (e *Engine) buildSelectCtx(ctx context.Context, stmt *sqlparse.SelectStmt) (Operator, *planContext, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("sqlexec: SELECT requires FROM")
	}
	pc := &planContext{
		e:      e,
		ctx:    ctx,
		stmt:   stmt,
		byBind: map[string]*tableSource{},
		access: map[string]*tableAccess{},
	}
	for _, ref := range stmt.From {
		src, err := e.resolveTable(ref)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := pc.byBind[src.binding()]; dup {
			return nil, nil, fmt.Errorf("sqlexec: duplicate table binding %q", src.binding())
		}
		pc.sources = append(pc.sources, src)
		pc.byBind[src.binding()] = src
		pc.access[src.binding()] = &tableAccess{src: src}
	}
	if err := pc.classify(); err != nil {
		return nil, nil, err
	}
	pc.collectWantTags()
	pc.analyzeAccess()

	// Aggregation over a single virtual table may fold from ValueBlob
	// header summaries instead of decoding columns; the rewrite replaces
	// the scan + filter + aggregate subtree when it is exactly equivalent.
	aggregated := hasAggregates(stmt.Items) || len(stmt.GroupBy) > 0
	var shape *aggShape
	var root Operator
	var err error
	pushed := false
	if aggregated {
		if shape, err = classifyAggShape(stmt); err != nil {
			return nil, nil, err
		}
		root, pushed = pc.tryAggPushdown(shape)
	}
	if !pushed {
		root, err = pc.buildJoinTree()
		if err != nil {
			return nil, nil, err
		}
		// Residual multi-table predicates.
		root, err = pc.applyFilter(root, pc.residual)
		if err != nil {
			return nil, nil, err
		}
	}

	// Aggregation or plain projection.
	if aggregated {
		if !pushed {
			root, err = pc.buildAggregate(root, shape)
			if err != nil {
				return nil, nil, err
			}
		}
	} else if stmt.Having != nil {
		return nil, nil, fmt.Errorf("sqlexec: HAVING requires aggregation")
	} else {
		root, err = pc.buildProjection(root)
		if err != nil {
			return nil, nil, err
		}
	}
	if root, err = selectTail(root, stmt, aggregated); err != nil {
		return nil, nil, err
	}
	return root, pc, nil
}

// selectTail stacks a SELECT's HAVING, ORDER BY and LIMIT on root, whose
// columns are the query's output: the aggregate's items, or the
// projection. The single-node plan and the cluster gather both end here, so
// they bind and run these clauses alike. In an aggregated query, HAVING and
// ORDER BY may name aggregate expressions; matching subexpressions become
// references to the aggregate's output columns.
func selectTail(root Operator, stmt *sqlparse.SelectStmt, aggregated bool) (Operator, error) {
	bindOut := func(e sqlparse.Expr) (boundExpr, error) {
		if aggregated {
			e = aggOutputRefs(e, root.Columns())
		}
		return bind(e, root.Columns())
	}
	if aggregated && stmt.Having != nil {
		bound, err := bindOut(stmt.Having)
		if err != nil {
			return nil, err
		}
		root = &filterOp{child: root, pred: bound, desc: "HAVING " + stmt.Having.String()}
	}
	if len(stmt.OrderBy) > 0 {
		sorted := &sortOp{child: root}
		for _, o := range stmt.OrderBy {
			b, err := bindOut(o.Expr)
			if err != nil {
				return nil, err
			}
			sorted.keys.add(b)
			sorted.desc = append(sorted.desc, o.Desc)
		}
		root = sorted
	}
	if stmt.Limit >= 0 {
		root = &limitOp{child: root, n: stmt.Limit}
	}
	return root, nil
}

// aggOutputRefs replaces subexpressions whose rendering matches an
// output column's name with a reference to that column, so HAVING
// COUNT(*) > 5 and ORDER BY AVG(x) resolve against the aggregate output.
func aggOutputRefs(e sqlparse.Expr, cols []ColMeta) sqlparse.Expr {
	return sqlparse.Rewrite(e, func(x sqlparse.Expr) sqlparse.Expr {
		str := x.String()
		for _, c := range cols {
			if strings.EqualFold(c.Name, str) {
				return &sqlparse.ColumnRef{Name: c.Name}
			}
		}
		return x
	})
}

// buildProjection expands stars and binds select expressions; a star's
// columns and a plain column reference bind to their input ordinals. Only a
// star keeps a column's binding, so a layout equal to the input's is every
// input column once, in order (SELECT * over one table): the child's rows
// are the result, and nothing is projected.
func (pc *planContext) buildProjection(child Operator) (Operator, error) {
	inCols := child.Columns()
	var items picks
	var outCols []ColMeta
	for _, item := range pc.stmt.Items {
		if item.Star {
			for ord, c := range inCols {
				if item.StarTable != "" && !strings.EqualFold(c.Table, item.StarTable) {
					continue
				}
				items.add(boundCol{ord})
				outCols = append(outCols, c)
			}
			continue
		}
		b, err := bind(item.Expr, inCols)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				name = cr.Name
			} else {
				name = item.Expr.String()
			}
		}
		items.add(b)
		outCols = append(outCols, ColMeta{Name: name, Kind: exprKind(item.Expr, inCols)})
	}
	if slices.Equal(outCols, inCols) {
		return child, nil
	}
	return &projectOp{child: child, items: items, cols: outCols}, nil
}

// buildAggregate binds the classified select list and GROUP BY to the
// child's columns.
func (pc *planContext) buildAggregate(child Operator, shape *aggShape) (Operator, error) {
	inCols := child.Columns()
	agg := &aggregateOp{child: child, shape: shape}
	for _, g := range shape.keys {
		b, err := bind(g, inCols)
		if err != nil {
			return nil, err
		}
		agg.keys.add(b)
	}
	for _, item := range shape.items {
		var b boundExpr
		if item.arg != nil {
			var err error
			if b, err = bind(item.arg, inCols); err != nil {
				return nil, err
			}
		}
		agg.args.add(b)
		agg.cols = append(agg.cols, ColMeta{Name: item.name, Kind: exprKind(item.expr, inCols)})
	}
	return agg, nil
}
