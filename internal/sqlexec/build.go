package sqlexec

import (
	"context"
	"fmt"
	"math"
	"strings"

	"odh/internal/relational"
	"odh/internal/sqlparse"
)

// buildScan constructs the access operator for one table plus its filter.
func (pc *planContext) buildScan(acc *tableAccess) (Operator, error) {
	var op Operator
	if acc.src.isVirtual() {
		vs := newVirtualScan(pc.e.ts, acc.src.schema, acc.src.binding(), pc.wantTags[acc.src.binding()])
		vs.t1, vs.t2 = acc.t1, acc.t2
		vs.tagRanges = acc.tagRanges
		if acc.idEq != nil {
			vs.historical = true
			vs.source = *acc.idEq
		} else if len(acc.idList) > 0 {
			vs.sources = acc.idList
		}
		vs.ctx = pc.ctx
		op = vs
	} else if acc.index != nil {
		if acc.prefixVals != nil {
			op = newRelIndexPrefix(acc.src.rel, acc.index, acc.src.binding(), acc.prefixVals)
		} else {
			op = newRelIndexRange(acc.src.rel, acc.index, acc.src.binding(), acc.rangeLo, acc.rangeHi)
		}
	} else {
		op = newRelSeqScan(acc.src.rel, acc.src.binding())
	}
	return pc.applyFilter(op, acc.conjuncts)
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
	remaining := map[string]*tableSource{}
	for _, src := range sources {
		remaining[src.binding()] = src
	}
	// Seed with the cheapest access.
	var seed *tableSource
	for _, src := range sources {
		if seed == nil || pc.access[src.binding()].estCost < pc.access[seed.binding()].estCost {
			seed = src
		}
	}
	cur, err := pc.buildScan(pc.access[seed.binding()])
	if err != nil {
		return nil, err
	}
	delete(remaining, seed.binding())
	joined := map[string]bool{seed.binding(): true}

	for len(remaining) > 0 {
		jp, next, flipped := pc.nextJoin(joined, remaining)
		if next == nil {
			// Disconnected table: cross-join via hash join on a constant
			// is not supported; reject clearly.
			return nil, fmt.Errorf("sqlexec: no join predicate connects table %q", anyKey(remaining))
		}
		outerCol, innerCol := jp.leftCol, jp.rightCol
		if flipped {
			outerCol, innerCol = jp.rightCol, jp.leftCol
		}
		outerOrd, err := resolveColumn(&sqlparse.ColumnRef{Name: outerCol}, cur.Columns())
		if err != nil {
			// The column may need qualification when names collide.
			outerOrd, err = resolveColumn(&sqlparse.ColumnRef{Table: jpBind(jp, !flipped), Name: outerCol}, cur.Columns())
			if err != nil {
				return nil, err
			}
		}
		acc := pc.access[next.binding()]
		// Prefer an index nested-loop when the inner table has an index
		// whose first column is the join column and no cheaper pushdown.
		var innerIdx *relational.Index
		for _, idx := range next.rel.Indexes() {
			if strings.EqualFold(next.rel.Columns()[idx.ColumnOrdinals()[0]].Name, innerCol) {
				innerIdx = idx
				break
			}
		}
		if innerIdx != nil && len(acc.conjuncts) == 0 {
			cur = newNLRelJoin(cur, next.rel, innerIdx, next.binding(), outerOrd)
		} else {
			innerScan, err := pc.buildScan(acc)
			if err != nil {
				return nil, err
			}
			innerOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: next.binding(), Name: innerCol}, innerScan.Columns())
			if err != nil {
				return nil, err
			}
			cur = newHashJoin(cur, innerScan, outerOrd, innerOrd)
		}
		joined[next.binding()] = true
		delete(remaining, next.binding())
	}
	return cur, nil
}

func jpBind(jp joinPred, left bool) string {
	if left {
		return jp.leftBind
	}
	return jp.rightBind
}

func anyKey(m map[string]*tableSource) string {
	for k := range m {
		return k
	}
	return ""
}

// nextJoin finds a join predicate connecting the joined set to a remaining
// table. flipped reports that the predicate's right side is in the joined
// set.
func (pc *planContext) nextJoin(joined map[string]bool, remaining map[string]*tableSource) (joinPred, *tableSource, bool) {
	for _, jp := range pc.joins {
		if joined[jp.leftBind] {
			if src, ok := remaining[jp.rightBind]; ok {
				return jp, src, false
			}
		}
		if joined[jp.rightBind] {
			if src, ok := remaining[jp.leftBind]; ok {
				return jp, src, true
			}
		}
	}
	return joinPred{}, nil, false
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
	// Find the join predicate binding the virtual table's id.
	var vJoin *joinPred
	for i := range pc.joins {
		jp := &pc.joins[i]
		if jp.leftBind == virtual.binding() && strings.EqualFold(jp.leftCol, virtual.schema.IDColumn()) {
			vJoin = jp
			break
		}
		if jp.rightBind == virtual.binding() && strings.EqualFold(jp.rightCol, virtual.schema.IDColumn()) {
			// Normalize: left side is the virtual id.
			jp.leftBind, jp.rightBind = jp.rightBind, jp.leftBind
			jp.leftCol, jp.rightCol = jp.rightCol, jp.leftCol
			vJoin = jp
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
	for _, src := range pc.sources {
		if src.isVirtual() || src == driver {
			continue
		}
		acc := pc.access[src.binding()]
		if rows := float64(src.rel.RowCount()); rows > 0 && acc.estRows < rows {
			drivingRows *= acc.estRows / rows
		}
	}
	if drivingRows < 1 {
		drivingRows = 1
	}

	stats := pc.e.cat.SchemaStats(virtual.schema.ID)
	nSources := math.Max(float64(pc.e.cat.SourceCount(virtual.schema.ID)), 1)
	frac := windowFraction(stats, vAcc.t1, vAcc.t2)
	perSource := float64(stats.BlobBytes) / nSources

	costRelFirst := driverAcc.estCost +
		drivingRows*(perSource*frac+costPerSeek+costPerRouterLookup)
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
		join := newNLVirtualJoin(rel, pc.e.ts, virtual.schema, virtual.binding(),
			pc.wantTags[virtual.binding()], outerOrd, vAcc.t1, vAcc.t2)
		join.tagRanges = vAcc.tagRanges
		join.ctx = pc.ctx
		// Virtual-side single-table predicates still apply (time bounds
		// were pushed, but re-checking is exact and cheap).
		return pc.applyFilter(join, vAcc.conjuncts)
	}

	pc.planNote = fmt.Sprintf("plan=operational-first cost=%.0f (alternative relational-first=%.0f)", costOpFirst, costRelFirst)
	vScan, err := pc.buildScan(vAcc)
	if err != nil {
		return nil, err
	}
	leftOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: virtual.binding(), Name: virtual.schema.IDColumn()}, vScan.Columns())
	if err != nil {
		return nil, err
	}
	// Hash-join each relational table onto the stream; the driver first.
	cur := vScan
	done := map[string]bool{virtual.binding(): true}
	leftKeyOrd := leftOrd
	// Join the driver on the virtual id.
	driverScan, err := pc.buildScan(driverAcc)
	if err != nil {
		return nil, err
	}
	innerOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: driver.binding(), Name: vJoin.rightCol}, driverScan.Columns())
	if err != nil {
		return nil, err
	}
	cur = newHashJoin(cur, driverScan, leftKeyOrd, innerOrd)
	done[driver.binding()] = true
	// Then the remaining relational tables by their join predicates.
	for {
		remaining := map[string]*tableSource{}
		for _, src := range relSources {
			if !done[src.binding()] {
				remaining[src.binding()] = src
			}
		}
		if len(remaining) == 0 {
			break
		}
		jp, next, flipped := pc.nextJoin(done, remaining)
		if next == nil {
			return nil, fmt.Errorf("sqlexec: no join predicate connects table %q", anyKey(remaining))
		}
		outerCol, innerCol := jp.leftCol, jp.rightCol
		outerBind, _ := jp.leftBind, jp.rightBind
		if flipped {
			outerCol, innerCol = jp.rightCol, jp.leftCol
			outerBind = jp.rightBind
		}
		outerOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: outerBind, Name: outerCol}, cur.Columns())
		if err != nil {
			return nil, err
		}
		innerScan, err := pc.buildScan(pc.access[next.binding()])
		if err != nil {
			return nil, err
		}
		innerOrd, err := resolveColumn(&sqlparse.ColumnRef{Table: next.binding(), Name: innerCol}, innerScan.Columns())
		if err != nil {
			return nil, err
		}
		cur = newHashJoin(cur, innerScan, outerOrd, innerOrd)
		done[next.binding()] = true
	}
	return cur, nil
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
	var root Operator
	var err error
	pushed := false
	if aggregated {
		root, pushed = pc.tryAggPushdown()
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
			root, err = pc.buildAggregate(root)
			if err != nil {
				return nil, nil, err
			}
		}
		if stmt.Having != nil {
			// HAVING (and ORDER BY below) may name aggregate expressions;
			// rewrite matching subexpressions into references to the
			// aggregate's output columns.
			having := rewriteAggRefs(stmt.Having, root.Columns())
			bound, err := bind(having, root.Columns())
			if err != nil {
				return nil, nil, err
			}
			root = &filterOp{child: root, pred: bound, desc: "HAVING " + stmt.Having.String()}
		}
	} else if stmt.Having != nil {
		return nil, nil, fmt.Errorf("sqlexec: HAVING requires aggregation")
	} else {
		root, err = pc.buildProjection(root)
		if err != nil {
			return nil, nil, err
		}
	}

	if len(stmt.OrderBy) > 0 {
		keys := make([]boundExpr, len(stmt.OrderBy))
		desc := make([]bool, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			// ORDER BY may reference output aliases, aggregate
			// expressions, or input columns; try output first.
			expr := o.Expr
			if aggregated {
				expr = rewriteAggRefs(expr, root.Columns())
			}
			b, err := bind(expr, root.Columns())
			if err != nil {
				return nil, nil, err
			}
			keys[i] = b
			desc[i] = o.Desc
		}
		root = &sortOp{child: root, keys: keys, desc: desc}
	}
	if stmt.Limit >= 0 {
		root = &limitOp{child: root, n: stmt.Limit}
	}
	return root, pc, nil
}

// rewriteAggRefs replaces subexpressions whose rendering matches an
// output column's name with a reference to that column, so HAVING
// COUNT(*) > 5 and ORDER BY AVG(x) resolve against the aggregate output.
func rewriteAggRefs(e sqlparse.Expr, cols []ColMeta) sqlparse.Expr {
	if e == nil {
		return nil
	}
	str := strings.ToUpper(e.String())
	for _, c := range cols {
		if strings.ToUpper(c.Name) == str {
			return &sqlparse.ColumnRef{Name: c.Name}
		}
	}
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		return &sqlparse.BinaryExpr{Op: x.Op, L: rewriteAggRefs(x.L, cols), R: rewriteAggRefs(x.R, cols)}
	case *sqlparse.BetweenExpr:
		return &sqlparse.BetweenExpr{
			Target: rewriteAggRefs(x.Target, cols),
			Lo:     rewriteAggRefs(x.Lo, cols),
			Hi:     rewriteAggRefs(x.Hi, cols),
		}
	case *sqlparse.NotExpr:
		return &sqlparse.NotExpr{Inner: rewriteAggRefs(x.Inner, cols)}
	}
	return e
}

// buildProjection expands stars and binds select expressions.
func (pc *planContext) buildProjection(child Operator) (Operator, error) {
	inCols := child.Columns()
	var exprs []boundExpr
	var outCols []ColMeta
	for _, item := range pc.stmt.Items {
		if item.Star {
			for ord, c := range inCols {
				if item.StarTable != "" && !strings.EqualFold(c.Table, item.StarTable) {
					continue
				}
				exprs = append(exprs, boundCol{ord})
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
		exprs = append(exprs, b)
		outCols = append(outCols, ColMeta{Name: name, Kind: exprKind(item.Expr, inCols)})
	}
	return &projectOp{child: child, exprs: exprs, cols: outCols}, nil
}

// buildAggregate compiles GROUP BY + aggregate select items.
func (pc *planContext) buildAggregate(child Operator) (Operator, error) {
	inCols := child.Columns()
	agg := &aggregateOp{child: child}
	groupStrs := make([]string, len(pc.stmt.GroupBy))
	for i, g := range pc.stmt.GroupBy {
		b, err := bind(g, inCols)
		if err != nil {
			return nil, err
		}
		agg.keys = append(agg.keys, b)
		groupStrs[i] = strings.ToUpper(g.String())
	}
	for _, item := range pc.stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlexec: SELECT * cannot be combined with aggregation")
		}
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
		}
		if fe, ok := item.Expr.(*sqlparse.FuncExpr); ok && fe.IsAggregate() {
			it := aggItem{keyIdx: -1, fn: fe.Name, star: fe.Star, name: name, kind: exprKind(item.Expr, inCols)}
			if !fe.Star {
				b, err := bind(fe.Args[0], inCols)
				if err != nil {
					return nil, err
				}
				it.arg = b
			}
			agg.items = append(agg.items, it)
			agg.cols = append(agg.cols, ColMeta{Name: name, Kind: it.kind})
			continue
		}
		// Non-aggregate item must match a GROUP BY expression.
		keyIdx := -1
		for i, gs := range groupStrs {
			if strings.ToUpper(item.Expr.String()) == gs {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return nil, fmt.Errorf("sqlexec: %s must appear in GROUP BY or an aggregate", item.Expr)
		}
		agg.items = append(agg.items, aggItem{keyIdx: keyIdx, name: name, kind: exprKind(item.Expr, inCols)})
		agg.cols = append(agg.cols, ColMeta{Name: name, Kind: exprKind(item.Expr, inCols)})
	}
	return agg, nil
}
