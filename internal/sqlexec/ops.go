package sqlexec

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/tsstore"
)

// Operator is a pull-based plan node.
type Operator interface {
	// Columns describes the output layout.
	Columns() []ColMeta
	// Next produces the next row; ok is false when exhausted. The row is
	// lent: it is valid until the next call to Next, and a caller that
	// keeps a row past that copies it. Producers reassemble one buffer.
	Next() (row Row, ok bool, err error)
	// BlobBytes reports the ValueBlob bytes this subtree read.
	BlobBytes() int64
	// Describe renders the node (and children, indented) for EXPLAIN.
	Describe(indent string) string
}

// --- relational sequential scan ---

type relSeqScan struct {
	table   *relational.Table
	binding string
	cols    []ColMeta
	cur     *relational.RowCursor
}

// relColumns lays a relational table's columns out under a binding.
func relColumns(t *relational.Table, binding string) []ColMeta {
	cols := make([]ColMeta, len(t.Columns()))
	for i, c := range t.Columns() {
		cols[i] = ColMeta{Table: binding, Name: c.Name, Kind: c.Type}
	}
	return cols
}

func newRelSeqScan(t *relational.Table, binding string) *relSeqScan {
	return &relSeqScan{table: t, binding: binding, cols: relColumns(t, binding)}
}

func (s *relSeqScan) Columns() []ColMeta { return s.cols }
func (s *relSeqScan) BlobBytes() int64   { return 0 }

func (s *relSeqScan) Next() (Row, bool, error) {
	if s.cur == nil {
		s.cur = s.table.Cursor()
	}
	_, vals, ok := s.cur.Next()
	if !ok {
		return nil, false, s.cur.Err()
	}
	return vals, true, nil
}

func (s *relSeqScan) Describe(indent string) string {
	return fmt.Sprintf("%sSeqScan(%s) rows=%d\n", indent, s.table.Name(), s.table.RowCount())
}

// --- relational index scan ---

type relIndexScan struct {
	table   *relational.Table
	index   *relational.Index
	binding string
	cols    []ColMeta
	lo, hi  relational.Value // inclusive range on the first indexed column
	prefix  []relational.Value
	cur     *relational.IndexCursor
}

func newRelIndexRange(t *relational.Table, idx *relational.Index, binding string, lo, hi relational.Value) *relIndexScan {
	return &relIndexScan{table: t, index: idx, binding: binding, cols: relColumns(t, binding), lo: lo, hi: hi}
}

func newRelIndexPrefix(t *relational.Table, idx *relational.Index, binding string, prefix []relational.Value) *relIndexScan {
	s := newRelIndexRange(t, idx, binding, relational.Null, relational.Null)
	s.prefix = prefix
	return s
}

func (s *relIndexScan) Columns() []ColMeta { return s.cols }
func (s *relIndexScan) BlobBytes() int64   { return 0 }

func (s *relIndexScan) Next() (Row, bool, error) {
	if s.cur == nil {
		if s.prefix != nil {
			s.cur = s.index.CursorPrefix(s.prefix)
		} else {
			s.cur = s.index.Cursor(s.lo, s.hi)
		}
	}
	_, vals, ok := s.cur.Next()
	if !ok {
		return nil, false, s.cur.Err()
	}
	return vals, true, nil
}

func (s *relIndexScan) Describe(indent string) string {
	if s.prefix != nil {
		return fmt.Sprintf("%sIndexScan(%s.%s, prefix)\n", indent, s.table.Name(), s.index.Name())
	}
	return fmt.Sprintf("%sIndexScan(%s.%s, range [%s, %s])\n", indent, s.table.Name(), s.index.Name(), s.lo, s.hi)
}

// --- virtual table scan (the VTI role) ---

// sourceSel names the sources one virtual-table access reads. It owns
// every decision that hangs on that choice: the router lookup, which
// store call serves a scan or an aggregate, and how EXPLAIN names it. An
// id the catalog does not know reads nothing, however it is selected.
type sourceSel struct {
	schema *model.SchemaType
	ids    []int64 // nil = every source of the schema
}

// mode names the access path by the selection's length: Slice for the
// whole schema, Historical for one id, Multi for more.
func (s sourceSel) mode() string {
	switch {
	case len(s.ids) == 1:
		return "Historical"
	case s.ids != nil:
		return "Multi"
	}
	return "Slice"
}

// String names the target for EXPLAIN.
func (s sourceSel) String() string {
	switch {
	case len(s.ids) == 1:
		return fmt.Sprintf("%s, id=%d", s.schema.Name, s.ids[0])
	case s.ids != nil:
		return fmt.Sprintf("%s, %d ids", s.schema.Name, len(s.ids))
	}
	return s.schema.Name
}

// lookup runs the data router's metadata probe: the router resolves the
// placement of every source the access will touch by reading catalog
// metadata, the per-query overhead the paper profiles on LQ1.
func (s sourceSel) lookup(store *tsstore.Store) {
	ids := s.ids
	if ids == nil {
		ids = store.Catalog().SourcesBySchema(s.schema.ID)
	}
	store.Catalog().RouterLookup(ids)
}

func (s sourceSel) scan(store *tsstore.Store, t1, t2 int64, wantTags []int, opts tsstore.ScanOptions, preds []tsstore.TagPred) (tsstore.Iterator, error) {
	if s.ids == nil {
		return store.SliceScanOpts(s.schema.ID, t1, t2, wantTags, opts, preds...)
	}
	return store.MultiHistoricalScanOpts(s.ids, t1, t2, wantTags, opts, preds...)
}

func (s sourceSel) aggregate(store *tsstore.Store, spec tsstore.AggSpec) (*tsstore.AggResult, error) {
	if s.ids == nil {
		return store.AggregateSlice(s.schema.ID, spec)
	}
	return store.AggregateMulti(s.ids, spec)
}

// virtualColumns lays a virtual table out as (id, timestamp, tags...).
func virtualColumns(schema *model.SchemaType, binding string) []ColMeta {
	cols := make([]ColMeta, 0, len(schema.Tags)+2)
	cols = append(cols,
		ColMeta{Table: binding, Name: schema.IDColumn(), Kind: relational.KindInt},
		ColMeta{Table: binding, Name: schema.TSColumn(), Kind: relational.KindTime},
	)
	for _, tag := range schema.Tags {
		cols = append(cols, ColMeta{Table: binding, Name: tag.Name, Kind: relational.KindFloat})
	}
	return cols
}

// virtualScan assembles relational rows (id, timestamp, tags...) from the
// batch stores over the planner's access descriptor.
type virtualScan struct {
	store    *tsstore.Store
	sel      sourceSel
	cols     []ColMeta
	wantTags []int // tag ordinals to decode; nil = all
	t1, t2   int64
	preds    []tsstore.TagPred // zone-map skipping only; the filter checks rows
	ctx      context.Context   // cancels the scan (threaded into ScanOptions.Ctx)
	iter     tsstore.Iterator
	row      Row // the lent row: a join's outer row (outer cells), then the point
	outer    int
}

func (pc *planContext) newVirtualScan(acc *tableAccess) *virtualScan {
	return &virtualScan{
		store:    pc.e.ts,
		sel:      acc.virt.sel,
		cols:     acc.src.columns(),
		wantTags: pc.wantTags[acc.src.binding()],
		t1:       acc.virt.t1,
		t2:       acc.virt.t2,
		preds:    acc.virt.preds,
		ctx:      pc.ctx,
	}
}

func (s *virtualScan) Columns() []ColMeta { return s.cols }

func (s *virtualScan) BlobBytes() int64 {
	if s.iter == nil {
		return 0
	}
	return s.iter.BlobBytes()
}

// open runs the router lookup, then builds the underlying iterator.
func (s *virtualScan) open() error {
	s.sel.lookup(s.store)
	iter, err := s.sel.scan(s.store, s.t1, s.t2, s.wantTags, tsstore.ScanOptions{Ctx: s.ctx}, s.preds)
	if err == nil {
		s.iter = iter
	}
	return err
}

func (s *virtualScan) Next() (Row, bool, error) {
	if s.iter == nil {
		if err := s.open(); err != nil {
			return nil, false, err
		}
	}
	return s.next()
}

// next assembles the open iterator's next point into the scan's row
// buffer behind its outer cells: decoded columns become relational values
// — the VTI overhead the paper measures at >80% of extraction time.
func (s *virtualScan) next() (Row, bool, error) {
	p, ok := s.iter.Next()
	if !ok {
		return nil, false, s.iter.Err()
	}
	if s.row == nil {
		s.row = make(Row, 0, len(s.cols))
	}
	row := append(s.row[:s.outer], relational.Int(p.Source), relational.Time(p.TS))
	for _, v := range p.Values {
		if model.IsNull(v) {
			row = append(row, relational.Null)
		} else {
			row = append(row, relational.Float(v))
		}
	}
	// A point holds its tags only through the last one the scan asked for;
	// the tags behind it are NULL.
	for len(row) < s.outer+len(s.cols) {
		row = append(row, relational.Null)
	}
	s.row = row
	return row, true, nil
}

func (s *virtualScan) Describe(indent string) string {
	return fmt.Sprintf("%sVirtual%sScan(%s, ts=[%d,%d))\n", indent, s.sel.mode(), s.sel, s.t1, s.t2)
}

// --- filter ---

type filterOp struct {
	child Operator
	pred  boundExpr
	desc  string
}

func (f *filterOp) Columns() []ColMeta { return f.child.Columns() }
func (f *filterOp) BlobBytes() int64   { return f.child.BlobBytes() }

func (f *filterOp) Next() (Row, bool, error) {
	for {
		row, ok, err := f.child.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		v, err := f.pred.eval(row)
		if err != nil {
			return nil, false, err
		}
		if truthy(v) {
			return row, true, nil
		}
	}
}

func (f *filterOp) Describe(indent string) string {
	return fmt.Sprintf("%sFilter(%s)\n%s", indent, f.desc, f.child.Describe(indent+"  "))
}

// --- projection ---

type projectOp struct {
	child Operator
	exprs []boundExpr
	cols  []ColMeta
	out   Row // the lent row, one cell per expression
}

func (p *projectOp) Columns() []ColMeta { return p.cols }
func (p *projectOp) BlobBytes() int64   { return p.child.BlobBytes() }

func (p *projectOp) Next() (Row, bool, error) {
	row, ok, err := p.child.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	if p.out == nil {
		p.out = make(Row, len(p.exprs))
	}
	for i, e := range p.exprs {
		p.out[i], err = e.eval(row)
		if err != nil {
			return nil, false, err
		}
	}
	return p.out, true, nil
}

func (p *projectOp) Describe(indent string) string {
	names := make([]string, len(p.cols))
	for i, c := range p.cols {
		names[i] = c.Name
	}
	return fmt.Sprintf("%sProject(%v)\n%s", indent, names, p.child.Describe(indent+"  "))
}

// --- limit ---

type limitOp struct {
	child Operator
	n     int
	seen  int
}

func (l *limitOp) Columns() []ColMeta { return l.child.Columns() }
func (l *limitOp) BlobBytes() int64   { return l.child.BlobBytes() }

func (l *limitOp) Next() (Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.child.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

func (l *limitOp) Describe(indent string) string {
	return fmt.Sprintf("%sLimit(%d)\n%s", indent, l.n, l.child.Describe(indent+"  "))
}

// --- hash join ---

// hashJoin builds a table on the right child's key and probes with the
// left child (inner equijoin). The paper's "operational-first" plan is a
// virtual slice scan on the left hash-joined against the relational table.
// The table keeps copies of the right rows; the left row in hand needs
// none, because the left child is not advanced while its matches are out.
type hashJoin struct {
	left, right       Operator
	leftKey, rightKey int
	cols              []ColMeta
	built             bool
	table             map[joinKey][]Row
	pendingLeft       Row
	pendingMatches    []Row
	pi                int
	out               Row // the lent row: pendingLeft then one match
}

type joinKey struct {
	f float64
	s string
	k uint8
}

func keyOf(v relational.Value) (joinKey, bool) {
	switch v.Kind {
	case relational.KindNull:
		return joinKey{}, false
	case relational.KindString:
		return joinKey{s: v.S, k: 2}, true
	default:
		return joinKey{f: v.AsFloat(), k: 1}, true
	}
}

func newHashJoin(left, right Operator, leftKey, rightKey int) *hashJoin {
	cols := append(append([]ColMeta{}, left.Columns()...), right.Columns()...)
	return &hashJoin{left: left, right: right, leftKey: leftKey, rightKey: rightKey, cols: cols}
}

func (j *hashJoin) Columns() []ColMeta { return j.cols }
func (j *hashJoin) BlobBytes() int64   { return j.left.BlobBytes() + j.right.BlobBytes() }

func (j *hashJoin) build() error {
	j.table = make(map[joinKey][]Row)
	for {
		row, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if k, ok := keyOf(row[j.rightKey]); ok {
			j.table[k] = append(j.table[k], slices.Clone(row))
		}
	}
	j.built = true
	return nil
}

func (j *hashJoin) Next() (Row, bool, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, false, err
		}
	}
	for {
		if j.pi < len(j.pendingMatches) {
			right := j.pendingMatches[j.pi]
			j.pi++
			j.out = append(append(j.out[:0], j.pendingLeft...), right...)
			return j.out, true, nil
		}
		row, ok, err := j.left.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		k, valid := keyOf(row[j.leftKey])
		if !valid {
			continue
		}
		j.pendingLeft = row
		j.pendingMatches = j.table[k]
		j.pi = 0
	}
}

func (j *hashJoin) Describe(indent string) string {
	return fmt.Sprintf("%sHashJoin(left[%d] = right[%d])\n%s%s",
		indent, j.leftKey, j.rightKey,
		j.left.Describe(indent+"  "), j.right.Describe(indent+"  "))
}

// --- index nested-loop join with a virtual inner ---

// nlVirtualJoin drives historical scans of the virtual table from outer
// rows — the paper's "relational-first" plan: extract matching sensors,
// then extract the operational records for each sensor id. The inner is
// one virtualScan re-aimed at each driven source; opening it writes the
// outer row into the head of its row buffer once, and each inner row
// rewrites only the tail.
type nlVirtualJoin struct {
	outer     Operator
	inner     *virtualScan
	outerKey  int // ordinal of the join key (sensor id) in outer rows
	cols      []ColMeta
	blobBytes int64 // of the drained inner scans; BlobBytes adds the open one
}

func newNLVirtualJoin(outer Operator, inner *virtualScan, outerKey int) *nlVirtualJoin {
	return &nlVirtualJoin{
		outer: outer, inner: inner, outerKey: outerKey,
		cols: append(append([]ColMeta{}, outer.Columns()...), inner.cols...),
	}
}

func (j *nlVirtualJoin) Columns() []ColMeta { return j.cols }
func (j *nlVirtualJoin) BlobBytes() int64   { return j.blobBytes + j.inner.BlobBytes() }

func (j *nlVirtualJoin) Next() (Row, bool, error) {
	for {
		if j.inner.iter != nil {
			row, ok, err := j.inner.next()
			if ok || err != nil {
				return row, ok, err
			}
			j.blobBytes += j.inner.BlobBytes()
			j.inner.iter = nil
		}
		row, ok, err := j.outer.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		key := row[j.outerKey]
		if key.IsNull() {
			continue
		}
		// A sensor the relational table has but the catalog does not reads
		// nothing, so it contributes no rows (inner join semantics).
		j.inner.sel.ids = []int64{key.AsInt()}
		if err := j.inner.open(); err != nil {
			return nil, false, err
		}
		j.inner.row, j.inner.outer = append(j.inner.row[:0], row...), len(row)
	}
}

func (j *nlVirtualJoin) Describe(indent string) string {
	return fmt.Sprintf("%sNLJoin->VirtualHistorical(%s, ts=[%d,%d))\n%s",
		indent, j.inner.sel.schema.Name, j.inner.t1, j.inner.t2, j.outer.Describe(indent+"  "))
}

// --- index nested-loop join with a relational inner ---

// nlRelJoin drives relational index lookups from outer rows (e.g. TQ1's
// trades-by-account via the T_CA_ID index). cur is the outer row in hand,
// valid while the outer child is not advanced.
type nlRelJoin struct {
	outer    Operator
	table    *relational.Table
	index    *relational.Index
	binding  string
	outerKey int
	cols     []ColMeta
	cur      Row
	inner    *relational.IndexCursor
	out      Row // the lent row: cur then the inner match
}

func newNLRelJoin(outer Operator, t *relational.Table, idx *relational.Index, binding string, outerKey int) *nlRelJoin {
	cols := append(append([]ColMeta{}, outer.Columns()...), relColumns(t, binding)...)
	return &nlRelJoin{outer: outer, table: t, index: idx, binding: binding, outerKey: outerKey, cols: cols}
}

func (j *nlRelJoin) Columns() []ColMeta { return j.cols }
func (j *nlRelJoin) BlobBytes() int64   { return j.outer.BlobBytes() }

func (j *nlRelJoin) Next() (Row, bool, error) {
	for {
		if j.inner != nil {
			_, vals, ok := j.inner.Next()
			if ok {
				j.out = append(append(j.out[:0], j.cur...), vals...)
				return j.out, true, nil
			}
			if err := j.inner.Err(); err != nil {
				return nil, false, err
			}
			j.inner = nil
		}
		row, ok, err := j.outer.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		key := row[j.outerKey]
		if key.IsNull() {
			continue
		}
		j.cur = row
		j.inner = j.index.CursorPrefix([]relational.Value{key})
	}
}

func (j *nlRelJoin) Describe(indent string) string {
	return fmt.Sprintf("%sNLJoin->Index(%s.%s)\n%s",
		indent, j.table.Name(), j.index.Name(), j.outer.Describe(indent+"  "))
}

// --- sort ---

// sortOp materialises its input, copying each lent row, and emits the
// copies in order.
type sortOp struct {
	child Operator
	keys  []boundExpr
	desc  []bool
	rows  []Row
	done  bool
	i     int
}

func (s *sortOp) Columns() []ColMeta { return s.child.Columns() }
func (s *sortOp) BlobBytes() int64   { return s.child.BlobBytes() }

func (s *sortOp) Next() (Row, bool, error) {
	if !s.done {
		for {
			row, ok, err := s.child.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			s.rows = append(s.rows, slices.Clone(row))
		}
		var evalErr error
		sort.SliceStable(s.rows, func(a, b int) bool {
			for k, key := range s.keys {
				va, err := key.eval(s.rows[a])
				if err != nil {
					evalErr = err
					return false
				}
				vb, err := key.eval(s.rows[b])
				if err != nil {
					evalErr = err
					return false
				}
				cmp := compareCoerced(va, vb)
				if cmp == 0 {
					continue
				}
				if s.desc[k] {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		if evalErr != nil {
			return nil, false, evalErr
		}
		s.done = true
	}
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.i]
	s.i++
	return row, true, nil
}

func (s *sortOp) Describe(indent string) string {
	return fmt.Sprintf("%sSort(%d keys)\n%s", indent, len(s.keys), s.child.Describe(indent+"  "))
}
