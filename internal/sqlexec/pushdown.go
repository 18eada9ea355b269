package sqlexec

import (
	"fmt"
	"strings"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/sqlparse"
	"odh/internal/tsstore"
)

// Aggregate pushdown rewrites COUNT/SUM/AVG/MIN/MAX over a single virtual
// table into a tsstore summary scan: blobs fully inside the window whose
// header summary proves every predicate fold from the header alone, so
// only boundary blobs are column-decoded. The rewrite fires only when it
// is exactly equivalent to the scan + filter + hash-aggregate plan — the
// access descriptor must have absorbed every WHERE conjunct losslessly,
// and every select item must be a supported aggregate or a group key.

// pushCol says how one output column is read off an AggGroup.
type pushCol struct {
	fn     string // "" for a group key
	bucket bool   // group keys: the TIME_BUCKET grid (else the id column)
	tag    int    // aggregates: the tag ordinal, -1 for COUNT(*)
}

// tryAggPushdown attempts the rewrite; ok is false when the query is not
// exactly expressible as an AggSpec and the generic plan must run.
func (pc *planContext) tryAggPushdown(sh *aggShape) (Operator, bool) {
	if pc.e.aggPushdownOff.Load() || len(pc.sources) != 1 || !pc.sources[0].isVirtual() {
		return nil, false
	}
	src := pc.sources[0]
	schema := src.schema
	va := pc.access[src.binding()].virt
	if !va.exact {
		return nil, false
	}
	spec := tsstore.AggSpec{
		T1: va.t1, T2: va.t2,
		NTags:    len(schema.Tags),
		Preds:    va.preds,
		WantTags: pc.wantTags[src.binding()],
	}

	// GROUP BY: only the id column and one TIME_BUCKET grid are liftable.
	bucketKey := make([]bool, len(sh.keys))
	for i, g := range sh.keys {
		if col, ok := g.(*sqlparse.ColumnRef); ok && strings.EqualFold(col.Name, schema.IDColumn()) {
			spec.ByID = true
		} else if w, ok := bucketWidth(g, schema); ok && (spec.BucketMs == 0 || spec.BucketMs == w) {
			spec.BucketMs, bucketKey[i] = w, true
		} else {
			return nil, false
		}
	}

	// Select items: group keys or direct aggregate calls over tags (id and
	// timestamp aggregates stay on the generic path).
	inCols := src.columns()
	op := &aggPushdownOp{store: pc.e.ts, sel: va.sel}
	for _, it := range sh.items {
		c := pushCol{fn: it.fn, tag: -1}
		switch {
		case it.key >= 0:
			c.bucket = bucketKey[it.key]
		case !it.star:
			col, ok := it.arg.(*sqlparse.ColumnRef)
			if !ok {
				return nil, false
			}
			if c.tag = schema.TagIndex(matchTagName(schema, col.Name)); c.tag < 0 {
				return nil, false
			}
		}
		op.items = append(op.items, c)
		op.cols = append(op.cols, ColMeta{Name: it.name, Kind: exprKind(it.expr, inCols)})
	}

	// The parallel degree follows the decoded bytes, not the swept bytes —
	// fanning out a fold-only scan buys nothing — and never exceeds the
	// owners there are to fan out over: one walk per source, so `id = n`
	// is serial and an IN list takes at most one worker per id.
	cost := va.folded(spec.BucketMs, pc.e.ts.SubBucketMs())
	pc.planNote = "agg-pushdown " + cost.String()
	workers := pc.e.parallelDegree(cost)
	if va.sel.ids != nil {
		workers = min(workers, len(va.sel.ids))
	}
	spec.Opts = tsstore.ScanOptions{Workers: workers, Ctx: pc.ctx}
	op.spec = spec
	return op, true
}

// bucketWidth recognizes TIME_BUCKET(w, <ts column>) with a positive
// integral literal width.
func bucketWidth(g sqlparse.Expr, schema *model.SchemaType) (int64, bool) {
	fe, ok := g.(*sqlparse.FuncExpr)
	if !ok || fe.Name != "TIME_BUCKET" || len(fe.Args) != 2 {
		return 0, false
	}
	lit, isLit := fe.Args[0].(*sqlparse.Literal)
	col, isCol := fe.Args[1].(*sqlparse.ColumnRef)
	if !isLit || !isCol || !strings.EqualFold(col.Name, schema.TSColumn()) {
		return 0, false
	}
	w, ok := intLit(lit.Val)
	return w, ok && w > 0
}

// aggPushdownOp runs one tsstore aggregate scan and emits its groups as
// rows. It replaces the scan + filter + hash-aggregate subtree.
type aggPushdownOp struct {
	store *tsstore.Store
	sel   sourceSel
	spec  tsstore.AggSpec
	items []pushCol
	cols  []ColMeta

	res  *tsstore.AggResult
	rows []Row
	i    int
}

func (a *aggPushdownOp) Columns() []ColMeta { return a.cols }

// BlobBytes reports only the bytes the scan actually decoded (boundary
// blobs + buffered rows). The bytes answered from summaries are the whole
// point of the pushdown and must not be claimed as read — EXPLAIN cost
// comparisons and Table 8-style per-byte throughput would otherwise see
// the folded bytes twice.
func (a *aggPushdownOp) BlobBytes() int64 {
	if a.res == nil {
		return 0
	}
	return a.res.BlobBytesRead
}

func (a *aggPushdownOp) run() error {
	var err error
	if a.res, err = a.sel.aggregate(a.store, a.spec); err != nil {
		return err
	}
	for gi := range a.res.Groups {
		a.rows = append(a.rows, a.materialize(&a.res.Groups[gi]))
	}
	// Grand-total aggregation yields one row even for empty input.
	if !a.spec.ByID && a.spec.BucketMs == 0 && len(a.rows) == 0 {
		a.rows = append(a.rows, a.materialize(nil))
	}
	return nil
}

// materialize renders one group (nil = the empty grand total): each
// aggregate is an aggState merged with the group's partial for its tag, so
// the executor's NULL/empty semantics apply unchanged.
func (a *aggPushdownOp) materialize(g *tsstore.AggGroup) Row {
	row := make(Row, len(a.items))
	for i, c := range a.items {
		switch {
		case c.fn == "" && c.bucket:
			row[i] = relational.Time(g.Bucket)
		case c.fn == "":
			row[i] = relational.Int(g.ID)
		default:
			s := aggState{fn: c.fn}
			switch {
			case g == nil:
			case c.tag < 0:
				s.merge(aggState{count: g.Rows})
			case g.NonNull[c.tag] > 0:
				s.merge(aggState{
					count: g.NonNull[c.tag],
					sum:   relational.Float(g.Sum[c.tag]),
					min:   relational.Float(g.Min[c.tag]),
					max:   relational.Float(g.Max[c.tag]),
				})
			}
			row[i] = s.result()
		}
	}
	return row
}

func (a *aggPushdownOp) Next() (Row, bool, error) {
	if a.res == nil {
		if err := a.run(); err != nil {
			return nil, false, err
		}
	}
	if a.i >= len(a.rows) {
		return nil, false, nil
	}
	row := a.rows[a.i]
	a.i++
	return row, true, nil
}

func (a *aggPushdownOp) Describe(indent string) string {
	grp := ""
	if a.spec.ByID {
		grp += ", by-id"
	}
	if a.spec.BucketMs > 0 {
		grp += fmt.Sprintf(", bucket=%dms", a.spec.BucketMs)
	}
	if a.spec.Opts.Workers > 1 {
		grp += fmt.Sprintf(", parallel=%d", a.spec.Opts.Workers)
	}
	return fmt.Sprintf("%sAggPushdown(%s, %s, ts=[%d,%d), %d preds%s)\n",
		indent, a.sel, strings.ToLower(a.sel.mode()), a.spec.T1, a.spec.T2, len(a.spec.Preds), grp)
}
