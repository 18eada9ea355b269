package sqlexec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"odh/internal/catalog"
	"odh/internal/relational"
	"odh/internal/sqlparse"
	"odh/internal/tsstore"
)

// Engine executes SQL over one relational database and one batch store
// sharing a catalog — the unified access layer ("both relational data and
// operational data are stored in one database. The unified data access
// interface of SQL supports data extraction and fusion from both").
type Engine struct {
	rel *relational.DB
	ts  *tsstore.Store
	cat *catalog.Catalog
	// queryWorkers caps the parallel degree of pushed-down aggregates;
	// <= 1 keeps every aggregate serial. Atomic: SetQueryWorkers may be
	// called while other goroutines are planning queries.
	queryWorkers atomic.Int64
	// aggPushdownOff disables the summary-aggregate rewrite (zero value =
	// enabled). Atomic for the same live-reconfiguration reason.
	aggPushdownOff atomic.Bool
}

// New builds an engine over the two stores.
func New(rel *relational.DB, ts *tsstore.Store) *Engine {
	return &Engine{rel: rel, ts: ts, cat: ts.Catalog()}
}

// SetQueryWorkers caps the parallel degree a pushed-down aggregate may
// use. The fan-out is across the aggregate's sources and MG groups, one
// walk each: a one-source aggregate and every row scan stay serial. The
// planner picks each aggregate's degree from its blob-bytes cost
// estimate, never exceeding n or the IN list's length; n <= 1 keeps
// aggregates serial. Safe to call on a live engine; queries planned
// afterwards use the new cap.
func (e *Engine) SetQueryWorkers(n int) { e.queryWorkers.Store(int64(n)) }

// SetAggPushdown enables or disables rewriting aggregates over a virtual
// table into ValueBlob summary folds (enabled by default). Disabling it
// forces the decode-and-group plan — the escape hatch for comparing the
// two paths and for the benchmark's fallback arm.
func (e *Engine) SetAggPushdown(on bool) { e.aggPushdownOff.Store(!on) }

// parallelCostUnit is the estimated blob-bytes of work that justifies one
// additional aggregate worker: fanning out cheaper aggregates costs more
// in goroutine overhead than the decode work it spreads.
const parallelCostUnit = 64 << 10

// parallelDegree converts an aggregate's cost — the bytes it expects to
// decode, not the bytes it sweeps — into a worker count in [1, queryWorkers].
func (e *Engine) parallelDegree(c blobCost) int {
	limit := int(e.queryWorkers.Load())
	if limit <= 1 || c.decoded < 2*parallelCostUnit {
		return 1
	}
	return min(int(c.decoded/parallelCostUnit), limit)
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the output columns of a SELECT (nil for DDL/DML).
	Columns []string
	// RowsAffected counts DDL/DML effects.
	RowsAffected int64
	// PlanText carries the EXPLAIN rendering when requested.
	PlanText string

	root Operator
	err  error
	// ctx cancels the query; Next observes it between rows, and the scan
	// iterators underneath observe it between blob loads.
	ctx       context.Context
	ctxChecks int
	// DataPoints counts the operational values pulled so far (non-NULL
	// values from virtual tables; for relational-only queries, non-NULL
	// values in the result). It is the unit Table 8's throughput uses.
	DataPoints int64
	// RowCount counts rows pulled so far.
	RowCount int64
}

// ctxCheckRows is how many result rows Next pulls between context
// checks; the scan layer checks per blob, this is a backstop for
// relational-heavy plans.
const ctxCheckRows = 64

// Next pulls the next result row of a SELECT. The row is lent: it is
// valid until the next call to Next, and a caller that keeps it copies it
// (FetchAll does).
func (r *Result) Next() (Row, bool, error) {
	if r.root == nil {
		return nil, false, r.err
	}
	if r.ctx != nil {
		if r.ctxChecks++; r.ctxChecks >= ctxCheckRows || r.RowCount == 0 {
			r.ctxChecks = 0
			if err := r.ctx.Err(); err != nil {
				r.err = fmt.Errorf("sqlexec: query canceled: %w", err)
				return nil, false, r.err
			}
		}
	}
	row, ok, err := r.root.Next()
	if err != nil {
		r.err = err
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	r.RowCount++
	for _, v := range row {
		if !v.IsNull() {
			r.DataPoints++
		}
	}
	return row, true, nil
}

// FetchAll drains the result into rows the caller owns.
func (r *Result) FetchAll() ([]Row, error) {
	var out []Row
	for {
		row, ok, err := r.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, slices.Clone(row))
	}
}

// BlobBytes reports the ValueBlob bytes the query read so far.
func (r *Result) BlobBytes() int64 {
	if r.root == nil {
		return 0
	}
	return r.root.BlobBytes()
}

// Query parses and executes one statement without a caller deadline.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx parses and executes one statement under ctx: canceling it (or
// exceeding its deadline) aborts planning, the scan workers, and row pulls
// with the context's error.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		root, pc, err := e.buildSelectCtx(ctx, s)
		if err != nil {
			return nil, err
		}
		cols := make([]string, len(root.Columns()))
		for i, c := range root.Columns() {
			cols[i] = c.Name
		}
		res := &Result{Columns: cols, root: root, ctx: ctx}
		if s.Explain {
			res.PlanText = e.explainText(root, pc)
			res.root = nil
			res.Columns = []string{"plan"}
		}
		return res, nil
	case *sqlparse.CreateTableStmt:
		cols := make([]relational.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = relational.Column{Name: c.Name, Type: c.Type}
		}
		if _, err := e.rel.CreateTable(s.Name, cols); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: 0}, nil
	case *sqlparse.CreateIndexStmt:
		t, ok := e.rel.Table(s.Table)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown table %q", s.Table)
		}
		if _, err := t.CreateIndex(s.Name, s.Columns...); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparse.CreateVirtualTableStmt:
		schema, ok := e.cat.SchemaByName(s.Schema)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown schema type %q", s.Schema)
		}
		if err := e.cat.CreateVirtualTable(s.Name, schema.ID); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparse.InsertStmt:
		return e.execInsert(s)
	}
	return nil, fmt.Errorf("sqlexec: unsupported statement %T", stmt)
}

// Plan returns the physical plan text for a SELECT without executing it.
func (e *Engine) Plan(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return "", fmt.Errorf("sqlexec: Plan requires a SELECT")
	}
	root, pc, err := e.buildSelectCtx(context.Background(), sel)
	if err != nil {
		return "", err
	}
	return e.explainText(root, pc), nil
}

func (e *Engine) explainText(root Operator, pc *planContext) string {
	var sb strings.Builder
	if pc.planNote != "" {
		sb.WriteString(pc.planNote)
		sb.WriteString("\n")
	}
	sb.WriteString(root.Describe(""))
	return sb.String()
}

// execInsert evaluates literal rows and inserts them, coercing to column
// types (timestamp strings in particular).
func (e *Engine) execInsert(s *sqlparse.InsertStmt) (*Result, error) {
	t, ok := e.rel.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqlexec: unknown table %q", s.Table)
	}
	cols := t.Columns()
	ordinals := make([]int, 0, len(cols))
	if s.Columns == nil {
		for i := range cols {
			ordinals = append(ordinals, i)
		}
	} else {
		for _, name := range s.Columns {
			ord := t.ColumnIndex(name)
			if ord < 0 {
				// Case-insensitive fallback.
				for i, c := range cols {
					if strings.EqualFold(c.Name, name) {
						ord = i
						break
					}
				}
			}
			if ord < 0 {
				return nil, fmt.Errorf("sqlexec: unknown column %q in INSERT", name)
			}
			ordinals = append(ordinals, ord)
		}
	}
	var batch [][]relational.Value
	for _, rowExprs := range s.Rows {
		if len(rowExprs) != len(ordinals) {
			return nil, fmt.Errorf("sqlexec: INSERT row has %d values for %d columns", len(rowExprs), len(ordinals))
		}
		row := make([]relational.Value, len(cols))
		for i := range row {
			row[i] = relational.Null
		}
		for i, expr := range rowExprs {
			b, err := bind(expr, nil)
			if err != nil {
				return nil, err
			}
			v, err := b.eval(nil)
			if err != nil {
				return nil, err
			}
			row[ordinals[i]] = coerceLiteral(v, cols[ordinals[i]].Type)
		}
		batch = append(batch, row)
	}
	if err := t.InsertBatch(batch); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(len(batch))}, nil
}
