package sqlexec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/sqlparse"
	"odh/internal/tsstore"
)

// Cost model constants (units: bytes, the paper's cost currency — "we
// approximate the cost of extracting the requested operational data as the
// expected size, in bytes, of the ValueBlobs that need to be accessed").
const (
	// costPerSeek charges one page per per-source seek (B-tree descent).
	costPerSeek = 4096.0
	// costPerRouterLookup prices the data router's metadata lookup per
	// source: the catalog reads a walker list makes for its owners.
	costPerRouterLookup = 256.0
	// defaultSelectivity estimates un-indexed predicate selectivity.
	defaultSelectivity = 0.1
)

// tableSource resolves one FROM entry.
type tableSource struct {
	ref    sqlparse.TableRef
	rel    *relational.Table
	schema *model.SchemaType // non-nil for virtual tables
}

func (t *tableSource) binding() string { return t.ref.Binding() }
func (t *tableSource) isVirtual() bool { return t.schema != nil }

// columns returns the source's column layout under its binding.
func (t *tableSource) columns() []ColMeta {
	if t.isVirtual() {
		return virtualColumns(t.schema, t.binding())
	}
	return relColumns(t.rel, t.binding())
}

// joinPred is an equijoin between two bindings.
type joinPred struct {
	leftBind, leftCol   string
	rightBind, rightCol string
}

// tableAccess carries the chosen access path for one table.
type tableAccess struct {
	src       *tableSource
	conjuncts []sqlparse.Expr // single-table predicates (applied as filter)

	// virt is the access descriptor of a virtual table (nil for relational).
	virt *virtualAccess

	// Relational access path.
	index      *relational.Index
	prefixVals []relational.Value
	rangeLo    relational.Value
	rangeHi    relational.Value

	estRows float64
	estCost float64 // bytes; virt.cost.total() for a virtual table
}

// planContext accumulates per-query planning state.
type planContext struct {
	e        *Engine
	ctx      context.Context // cancels the query's scans
	stmt     *sqlparse.SelectStmt
	sources  []*tableSource
	byBind   map[string]*tableSource
	access   map[string]*tableAccess
	joins    []joinPred
	residual []sqlparse.Expr // multi-table non-equijoin predicates
	wantTags map[string][]int
	// planNote records optimizer decisions for EXPLAIN / the LQ4 study.
	planNote string
}

// resolveTable maps a FROM name to a source (virtual tables first, then
// relational; both case-insensitive).
func (e *Engine) resolveTable(ref sqlparse.TableRef) (*tableSource, error) {
	if schema, ok := e.cat.VirtualTable(ref.Name); ok {
		return &tableSource{ref: ref, schema: schema}, nil
	}
	for _, name := range e.cat.VirtualTables() {
		if strings.EqualFold(name, ref.Name) {
			schema, _ := e.cat.VirtualTable(name)
			return &tableSource{ref: ref, schema: schema}, nil
		}
	}
	if t, ok := e.rel.Table(ref.Name); ok {
		return &tableSource{ref: ref, rel: t}, nil
	}
	for _, name := range e.rel.Tables() {
		if strings.EqualFold(name, ref.Name) {
			t, _ := e.rel.Table(name)
			return &tableSource{ref: ref, rel: t}, nil
		}
	}
	return nil, fmt.Errorf("sqlexec: unknown table %q", ref.Name)
}

// classify splits WHERE conjuncts into per-table, join, and residual sets.
func (pc *planContext) classify() error {
	for _, conj := range sqlparse.SplitConjuncts(pc.stmt.Where) {
		binds := map[string]bool{}
		ok := true
		sqlparse.Inspect(conj, func(e sqlparse.Expr) bool {
			if ref, isRef := e.(*sqlparse.ColumnRef); isRef {
				// Inspect still visits siblings after a false return,
				// so one unresolved column must fail the whole conjunct.
				if b, found := pc.bindingOf(ref); found {
					binds[b] = true
				} else {
					ok = false
				}
			}
			return ok
		})
		if !ok {
			return fmt.Errorf("sqlexec: cannot resolve columns in %s", conj)
		}
		switch len(binds) {
		case 0, 1:
			var bind string
			for b := range binds {
				bind = b
			}
			if bind == "" {
				bind = pc.sources[0].binding()
			}
			pc.access[bind].conjuncts = append(pc.access[bind].conjuncts, conj)
		case 2:
			if jp, ok := asJoinPred(conj, pc); ok {
				pc.joins = append(pc.joins, jp)
			} else {
				pc.residual = append(pc.residual, conj)
			}
		default:
			pc.residual = append(pc.residual, conj)
		}
	}
	return nil
}

// bindingOf resolves a column reference to its table binding.
func (pc *planContext) bindingOf(ref *sqlparse.ColumnRef) (string, bool) {
	if ref.Table != "" {
		for _, src := range pc.sources {
			if strings.EqualFold(src.binding(), ref.Table) {
				return src.binding(), true
			}
		}
		return "", false
	}
	found := ""
	for _, src := range pc.sources {
		for _, col := range src.columns() {
			if strings.EqualFold(col.Name, ref.Name) {
				if found != "" && found != src.binding() {
					return "", false // ambiguous
				}
				found = src.binding()
			}
		}
	}
	return found, found != ""
}

// flipped swaps the predicate's sides.
func (jp joinPred) flipped() joinPred {
	return joinPred{leftBind: jp.rightBind, leftCol: jp.rightCol, rightBind: jp.leftBind, rightCol: jp.leftCol}
}

// asJoinPred recognizes `a.x = b.y` between two different tables.
func asJoinPred(e sqlparse.Expr, pc *planContext) (joinPred, bool) {
	b, ok := e.(*sqlparse.BinaryExpr)
	if !ok || b.Op != "=" {
		return joinPred{}, false
	}
	lc, lok := b.L.(*sqlparse.ColumnRef)
	rc, rok := b.R.(*sqlparse.ColumnRef)
	if !lok || !rok {
		return joinPred{}, false
	}
	lb, ok1 := pc.bindingOf(lc)
	rb, ok2 := pc.bindingOf(rc)
	if !ok1 || !ok2 || lb == rb {
		return joinPred{}, false
	}
	return joinPred{leftBind: lb, leftCol: lc.Name, rightBind: rb, rightCol: rc.Name}, true
}

// analyzeAccess derives pushdowns and cost for each table.
func (pc *planContext) analyzeAccess() {
	for _, src := range pc.sources {
		acc := pc.access[src.binding()]
		if src.isVirtual() {
			pc.analyzeVirtual(acc)
		} else {
			pc.analyzeRelational(acc)
		}
	}
}

// colPred is one WHERE conjunct destructured into comparisons of a single
// column against literals — the one form both consumers of a conjunct's
// meaning read: the relational index chooser and the virtual-table access
// descriptor.
type colPred struct {
	col  string             // column name (the conjunct already belongs to one table)
	cmps []litCmp           // col op lit; BETWEEN contributes >= and <=
	in   []relational.Value // col IN (lit, ...)
	// whole: cmps / in say everything the conjunct says (false for a
	// BETWEEN with one non-literal bound).
	whole bool
}

// litCmp is `col op lit` with op one of = != < <= > >=.
type litCmp struct {
	op  string
	lit relational.Value
}

var comparisonOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

// destructure recognizes `col op lit`, `lit op col` (mirrored), `col
// BETWEEN lit AND lit` and `col IN (lit, ...)`; ok is false for any other
// shape, which stays with the filter alone.
func destructure(conj sqlparse.Expr) (p colPred, ok bool) {
	lit := func(e sqlparse.Expr) (relational.Value, bool) {
		l, isLit := e.(*sqlparse.Literal)
		if !isLit {
			return relational.Null, false
		}
		return l.Val, true
	}
	switch x := conj.(type) {
	case *sqlparse.BetweenExpr:
		col, isCol := x.Target.(*sqlparse.ColumnRef)
		if !isCol {
			return p, false
		}
		p.col = col.Name
		if v, isLit := lit(x.Lo); isLit {
			p.cmps = append(p.cmps, litCmp{">=", v})
		}
		if v, isLit := lit(x.Hi); isLit {
			p.cmps = append(p.cmps, litCmp{"<=", v})
		}
		p.whole = len(p.cmps) == 2
		return p, len(p.cmps) > 0
	case *sqlparse.InExpr:
		col, isCol := x.Target.(*sqlparse.ColumnRef)
		if !isCol {
			return p, false
		}
		p.col, p.whole = col.Name, true
		for _, item := range x.List {
			v, isLit := lit(item)
			if !isLit {
				return p, false
			}
			p.in = append(p.in, v)
		}
		return p, true
	case *sqlparse.BinaryExpr:
		op := x.Op
		col, isCol := x.L.(*sqlparse.ColumnRef)
		v, isLit := lit(x.R)
		if !isCol || !isLit {
			col, isCol = x.R.(*sqlparse.ColumnRef)
			v, isLit = lit(x.L)
			op = mirrorOp(op)
		}
		if !isCol || !isLit || !comparisonOps[op] {
			return p, false
		}
		return colPred{col: col.Name, cmps: []litCmp{{op, v}}, whole: true}, true
	}
	return p, false
}

func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

// timeLit brackets a literal compared against the timestamp column by the
// nearest integer milliseconds at or below and at or above it (equal when
// the literal is itself integral; timestamp strings parse). ok is false
// when no integer bound says what the comparison says: unparseable
// strings, NULL, NaN, and floats beyond 2^53, where the filter's float64
// comparison no longer tells neighbouring timestamps apart.
func timeLit(v relational.Value) (floor, ceil int64, ok bool) {
	switch v.Kind {
	case relational.KindInt, relational.KindTime:
		return v.I, v.I, true
	case relational.KindFloat:
		if math.Abs(v.F) <= 1<<53 {
			return int64(math.Floor(v.F)), int64(math.Ceil(v.F)), true
		}
	case relational.KindString:
		if ms, parsed := ParseTimestamp(v.S); parsed {
			return ms, ms, true
		}
	}
	return 0, 0, false
}

// intLit converts a literal that must be an exact integer (a source id, a
// TIME_BUCKET width). Strings never qualify: against an integer column
// they compare by kind, not by value.
func intLit(v relational.Value) (int64, bool) {
	floor, ceil, ok := timeLit(v)
	return floor, ok && floor == ceil && v.Kind != relational.KindString
}

// tagLit converts a literal to the float64 a tag comparison sees. Integers
// beyond 2^53 lose precision in the conversion and NaN never compares, so
// both are declined.
func tagLit(v relational.Value) (float64, bool) {
	switch v.Kind {
	case relational.KindInt:
		return float64(v.I), v.I <= 1<<53 && v.I >= -(1<<53)
	case relational.KindFloat:
		return v.F, !math.IsNaN(v.F)
	}
	return 0, false
}

// satInc is ms+1 saturating at MaxInt64 — the exclusive edge of an
// inclusive bound. No scan returns a row at MaxInt64 (every window is
// half-open), so the saturated edge loses nothing a query could see.
func satInc(ms int64) int64 {
	if ms == math.MaxInt64 {
		return ms
	}
	return ms + 1
}

// virtualAccess is everything the planner decides about reading one
// virtual table, derived from the table's conjuncts in one pass. Row scans,
// the fused join's inner scans and the aggregate pushdown all read it.
type virtualAccess struct {
	// t1, t2: the half-open window [t1, t2) the timestamp conjuncts allow.
	t1, t2 int64
	sel    sourceSel         // `id = n`, `id IN (...)`, or the whole schema
	preds  []tsstore.TagPred // tag conjuncts, strictness kept
	// exact: every conjunct was absorbed losslessly into the fields above,
	// so they may replace the filter (the aggregate pushdown's
	// precondition). A conjunct absorbed inexactly only ever loosens them:
	// row plans keep it in the filter, which re-checks every row.
	exact bool
	how   []absorbed // per conjunct
	cost  blobCost   // the selection read as a row scan

	stats    model.SourceStats // the schema's persisted totals
	nSources float64
}

// absorbed names the field that says exactly what a conjunct says, if any.
type absorbed uint8

const (
	inexact   absorbed = iota // none: the conjunct only loosened them, or was not absorbed
	exactTag                  // preds; a row scan skips blobs by it, its filter checks rows
	exactTime                 // the window [t1, t2)
	exactSel                  // the source selection
)

// absorb folds one destructured conjunct into the descriptor and reports
// which field, if any, now enforces it losslessly.
func (va *virtualAccess) absorb(p colPred) absorbed {
	schema := va.sel.schema
	exact, how := p.whole, exactTag
	switch {
	case strings.EqualFold(p.col, schema.TSColumn()):
		if p.in != nil {
			return inexact
		}
		how = exactTime
		for _, c := range p.cmps {
			// A fractional literal is bracketed by its floor and ceiling, which
			// is as tight as integer timestamps allow and never tighter than
			// the predicate; only an integral one counts as exact.
			floor, ceil, ok := timeLit(c.lit)
			if !ok {
				exact = false
				continue
			}
			exact = exact && floor == ceil
			switch c.op {
			case ">=":
				va.t1 = max(va.t1, ceil)
			case ">":
				va.t1 = max(va.t1, satInc(floor))
			case "<=":
				va.t2 = min(va.t2, satInc(floor))
			case "<":
				va.t2 = min(va.t2, ceil)
			case "=":
				va.t1, va.t2 = max(va.t1, ceil), min(va.t2, satInc(floor))
			default:
				exact = false
			}
		}
	case strings.EqualFold(p.col, schema.IDColumn()):
		// One id conjunct selects the sources; a second one is left to the
		// filter rather than intersected.
		lits := p.in
		if len(p.cmps) == 1 && p.cmps[0].op == "=" {
			lits = []relational.Value{p.cmps[0].lit}
		}
		if lits == nil || va.sel.ids != nil {
			return inexact
		}
		// IN is a membership test: a duplicate literal must not scan (and
		// return) its source twice.
		ids := make([]int64, 0, len(lits))
		for _, lit := range lits {
			id, ok := intLit(lit)
			if !ok {
				return inexact
			}
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
		va.sel.ids, how = ids, exactSel
	default:
		tag := schema.TagIndex(matchTagName(schema, p.col))
		if tag < 0 || p.in != nil {
			return inexact
		}
		pred := tsstore.TagPred{Tag: tag, Lo: math.Inf(-1), Hi: math.Inf(1)}
		for _, c := range p.cmps {
			v, ok := tagLit(c.lit)
			if !ok {
				exact = false
				continue
			}
			switch c.op {
			case "=":
				pred.Lo, pred.Hi = v, v
			case "<":
				pred.Hi, pred.HiStrict = v, true
			case "<=":
				pred.Hi = v
			case ">":
				pred.Lo, pred.LoStrict = v, true
			case ">=":
				pred.Lo = v
			default:
				exact = false
			}
		}
		if !math.IsInf(pred.Lo, -1) || !math.IsInf(pred.Hi, 1) {
			va.preds = append(va.preds, pred)
		}
	}
	if !exact {
		return inexact
	}
	return how
}

// rowFilter returns, in order, the conjuncts a row scan of the table does
// not enforce: a virtual table's exact time and id conjuncts drop out, the
// id's only while no join re-aims the selection at each outer key.
func (acc *tableAccess) rowFilter(reaimed bool) (keep []sqlparse.Expr) {
	for i, conj := range acc.conjuncts {
		if acc.virt == nil || acc.virt.how[i] < exactTime || reaimed && acc.virt.how[i] == exactSel {
			keep = append(keep, conj)
		}
	}
	return keep
}

// blobCost is the planner's one currency (paper §3): "the expected size,
// in bytes, of the ValueBlobs that need to be accessed", plus the fixed
// charges of reaching them. Scan costing, fused-join ordering, the
// pushdown's est-decoded note and the parallel degree all read it.
type blobCost struct {
	swept   float64 // blob bytes inside the window that the access walks over
	decoded float64 // of swept, the bytes column-decoded: all of them for a row scan, boundary blobs only for a summary fold
	seeks   float64 // B-tree descents, costPerSeek bytes each
	lookups float64 // sources the data router looks up, costPerRouterLookup bytes each
	subBase int64   // > 0: a TIME_BUCKET grid folds from sub-bucket summaries of this width
}

func (c blobCost) total() float64 {
	return c.swept + c.seeks*costPerSeek + c.lookups*costPerRouterLookup
}

// String renders a fold's estimate for EXPLAIN.
func (c blobCost) String() string {
	pct, sub := 0.0, ""
	if c.swept > 0 {
		pct = 100 * (1 - c.decoded/c.swept)
	}
	if c.subBase > 0 {
		sub = fmt.Sprintf(", sub-bucket foldable @%dms", c.subBase)
	}
	return fmt.Sprintf("est-decoded=%.0fB of %.0fB swept blob bytes (%.0f%% summary-folded%s)", c.decoded, c.swept, pct, sub)
}

// byID prices row-scanning n sources by id over the window: each pays its
// share of the schema's blob bytes, one seek and one router lookup. It is
// also what the relational-first fused plan pays per driving row.
func (va *virtualAccess) byID(n float64) blobCost {
	perSource := 0.0
	if va.nSources > 0 {
		perSource = float64(va.stats.BlobBytes) / va.nSources
	}
	bytes := perSource * va.fraction() * n
	return blobCost{swept: bytes, decoded: bytes, seeks: n, lookups: n}
}

// folded re-prices the access as a summary fold: a window edge cuts at
// most one blob per record stream, two edges per stream; everything else
// folds from header summaries undecoded.
func (va *virtualAccess) folded(bucketMs, subBase int64) blobCost {
	c := va.cost
	streams := math.Max(va.nSources, 1)
	if va.sel.ids != nil {
		streams = float64(len(va.sel.ids))
	}
	avgBlob := 0.0
	if va.stats.BatchCount > 0 {
		avgBlob = float64(va.stats.BlobBytes) / float64(va.stats.BatchCount)
	}
	c.decoded = math.Min(c.swept, 2*streams*avgBlob)
	if bucketMs <= 0 {
		return c
	}
	// A TIME_BUCKET grid adds an interior bucket edge every bucketMs across
	// the effective window, and every edge cuts one straddling blob per
	// stream that must be decoded — unless the store writes sub-bucket
	// summaries at a base this width is a multiple of, in which case
	// straddlers fold from the mini-summaries and only the two window edges
	// remain decoded.
	if subBase > 0 && bucketMs%subBase == 0 {
		c.subBase = subBase
	} else if lo, hi := va.dataWindow(); hi > lo {
		edges := (hi - lo) / float64(bucketMs)
		c.decoded = math.Min(c.swept, c.decoded+edges*streams*avgBlob)
	}
	return c
}

// dataWindow clips the window to the span that holds persisted data.
func (va *virtualAccess) dataWindow() (lo, hi float64) {
	return math.Max(float64(va.t1), float64(va.stats.FirstTS)), math.Min(float64(va.t2), float64(va.stats.LastTS))
}

// fraction estimates the share of stored data inside the window.
func (va *virtualAccess) fraction() float64 {
	span := float64(va.stats.LastTS - va.stats.FirstTS)
	if va.stats.PointCount == 0 || span <= 0 {
		return 1
	}
	lo, hi := va.dataWindow()
	if hi <= lo {
		return 0.001 // off-range queries still touch boundary batches
	}
	return math.Min((hi-lo)/span, 1)
}

// analyzeVirtual builds a virtual table's access descriptor and costs it.
func (pc *planContext) analyzeVirtual(acc *tableAccess) {
	schema := acc.src.schema
	cat := pc.e.cat
	va := &virtualAccess{
		t1: math.MinInt64, t2: math.MaxInt64, exact: true,
		sel:      sourceSel{schema: schema},
		stats:    cat.SchemaStats(schema.ID),
		nSources: float64(cat.SourceCount(schema.ID)),
	}
	acc.virt = va
	for _, conj := range acc.conjuncts {
		how := inexact
		if p, ok := destructure(conj); ok {
			how = va.absorb(p)
		}
		va.exact = va.exact && how != inexact
		va.how = append(va.how, how)
	}
	frac := va.fraction()
	if va.sel.ids != nil {
		n := float64(len(va.sel.ids))
		va.cost = va.byID(n)
		acc.estRows = float64(va.stats.PointCount) / math.Max(va.nSources, 1) * frac * n
	} else {
		// Slice scans over MG groups seek once per group record stream,
		// not once per source — the MG structure's advantage for slice
		// queries (paper Table 1).
		seekStreams := va.nSources
		if groups := cat.GroupsBySchema(schema.ID); len(groups) > 0 {
			seekStreams = float64(len(groups))
		}
		bytes := float64(va.stats.BlobBytes) * frac
		va.cost = blobCost{swept: bytes, decoded: bytes, seeks: seekStreams * frac, lookups: va.nSources}
		acc.estRows = float64(va.stats.PointCount) * frac
	}
	acc.estCost = va.cost.total()
}

// colBounds accumulates the literal range a table's conjuncts pin one
// column into.
type colBounds struct {
	lo, hi relational.Value // inclusive; Null = open
	eq     bool             // exact equality (lo == hi from '=')
}

// analyzeRelational picks the best index for a relational table.
func (pc *planContext) analyzeRelational(acc *tableAccess) {
	t := acc.src.rel
	rows := float64(t.RowCount())
	avgRow := 64.0
	if t.RowCount() > 0 {
		avgRow = float64(t.StorageBytes()) / rows
	}
	// Default: sequential scan.
	acc.estRows = rows
	acc.estCost = rows * avgRow
	// Per-column ranges from the comparisons. Exclusive bounds are treated
	// as inclusive — the filter re-checks the exact predicate, so this only
	// loosens the range.
	bounds := map[string]*colBounds{}
	for _, conj := range acc.conjuncts {
		p, ok := destructure(conj)
		if !ok || p.in != nil {
			continue
		}
		kind, known := relational.KindNull, false
		for _, c := range t.Columns() {
			if strings.EqualFold(c.Name, p.col) {
				kind, known = c.Type, true
			}
		}
		if !known {
			continue
		}
		key := strings.ToLower(p.col)
		b := bounds[key]
		if b == nil {
			b = &colBounds{lo: relational.Null, hi: relational.Null}
			bounds[key] = b
		}
		for _, c := range p.cmps {
			v := coerceLiteral(c.lit, kind)
			if c.op == "=" || c.op == ">" || c.op == ">=" {
				if b.lo.IsNull() || relational.Compare(v, b.lo) > 0 {
					b.lo = v
				}
			}
			if c.op == "=" || c.op == "<" || c.op == "<=" {
				if b.hi.IsNull() || relational.Compare(v, b.hi) < 0 {
					b.hi = v
				}
			}
			b.eq = b.eq || c.op == "="
		}
	}
	// Probe each bounded column's index for its match count; the probes
	// double as histogram statistics (per-column selectivities compose
	// multiplicatively, independence assumed).
	type colEst struct {
		n   int
		idx *relational.Index
		b   *colBounds
	}
	var ests []colEst
	estimated := map[string]bool{}
	for _, idx := range t.Indexes() {
		firstCol := strings.ToLower(t.Columns()[idx.ColumnOrdinals()[0]].Name)
		b, ok := bounds[firstCol]
		if !ok || (b.lo.IsNull() && b.hi.IsNull()) || estimated[firstCol] {
			continue
		}
		n, err := idx.CountRange(b.lo, b.hi)
		if err != nil {
			continue
		}
		ests = append(ests, colEst{n, idx, b})
		estimated[firstCol] = true
	}
	if len(bounds) > 0 && rows > 0 {
		sel := 1.0
		for col := range bounds {
			if !estimated[col] {
				sel *= defaultSelectivity // no statistics for this column
			}
		}
		for _, e := range ests {
			sel *= float64(e.n) / rows
		}
		acc.estRows = math.Max(rows*sel, 1)
	}
	// Access path: the cheapest selective index, else the sequential scan.
	for _, e := range ests {
		cost := float64(e.n)*(avgRow+costPerSeek/8) + costPerSeek
		if cost < acc.estCost {
			acc.estCost = cost
			acc.index = e.idx
			if e.b.eq && !e.b.lo.IsNull() {
				acc.prefixVals = []relational.Value{e.b.lo}
				acc.rangeLo, acc.rangeHi = relational.Null, relational.Null
			} else {
				acc.prefixVals = nil
				acc.rangeLo, acc.rangeHi = e.b.lo, e.b.hi
			}
		}
	}
}

// coerceLiteral converts a literal to a column's kind (notably timestamp
// strings).
func coerceLiteral(v relational.Value, kind relational.Kind) relational.Value {
	if kind == relational.KindTime {
		switch v.Kind {
		case relational.KindString:
			if ms, ok := ParseTimestamp(v.S); ok {
				return relational.Time(ms)
			}
		case relational.KindInt, relational.KindFloat:
			return relational.Time(v.AsInt())
		}
	}
	if kind == relational.KindFloat && v.Kind == relational.KindInt {
		return relational.Float(float64(v.I))
	}
	return v
}

// collectWantTags finds, for each virtual table, the tag ordinals the
// query references — the tag-oriented projection pushdown.
func (pc *planContext) collectWantTags() {
	pc.wantTags = map[string][]int{}
	for _, src := range pc.sources {
		if !src.isVirtual() {
			continue
		}
		// Star selection (unqualified or for this table) requires all tags.
		needAll := false
		for _, item := range pc.stmt.Items {
			if item.Star && (item.StarTable == "" || strings.EqualFold(item.StarTable, src.binding())) {
				needAll = true
			}
		}
		if needAll {
			pc.wantTags[src.binding()] = nil
			continue
		}
		tagSet := map[int]bool{}
		visit := func(e sqlparse.Expr) {
			sqlparse.Inspect(e, func(e sqlparse.Expr) bool {
				if ref, ok := e.(*sqlparse.ColumnRef); ok {
					if bind, ok := pc.bindingOf(ref); ok && bind == src.binding() {
						if idx := src.schema.TagIndex(matchTagName(src.schema, ref.Name)); idx >= 0 {
							tagSet[idx] = true
						}
					}
				}
				return true
			})
		}
		for _, item := range pc.stmt.Items {
			visit(item.Expr)
		}
		visit(pc.stmt.Where)
		for _, g := range pc.stmt.GroupBy {
			visit(g)
		}
		for _, o := range pc.stmt.OrderBy {
			visit(o.Expr)
		}
		tags := make([]int, 0, len(tagSet))
		for idx := range tagSet {
			tags = append(tags, idx)
		}
		pc.wantTags[src.binding()] = tags
	}
}

// matchTagName resolves a case-insensitive tag reference to the schema's
// spelling.
func matchTagName(schema *model.SchemaType, name string) string {
	for _, t := range schema.Tags {
		if strings.EqualFold(t.Name, name) {
			return t.Name
		}
	}
	return name
}
