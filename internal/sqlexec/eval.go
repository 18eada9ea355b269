// Package sqlexec implements the ODH query component: name resolution
// over relational and virtual tables, a cost-based planner whose cost unit
// is expected ValueBlob bytes (paper §3), and a pull-based executor with
// scan, filter, join, aggregate, sort, and limit operators. Virtual tables
// are served by the tsstore batch structures through scan operators that
// assemble relational rows from decoded blobs — the role Informix VTI
// plays in the paper.
package sqlexec

import (
	"fmt"
	"math"
	"strings"
	"time"

	"odh/internal/model"
	"odh/internal/relational"
	"odh/internal/sqlparse"
)

// ColMeta describes one output column of an operator.
type ColMeta struct {
	// Table is the binding (alias or table name) the column came from;
	// empty for computed columns.
	Table string
	// Name is the column name.
	Name string
	// Kind is the column's type.
	Kind relational.Kind
}

// Row is one tuple.
type Row = []relational.Value

// boundExpr is an expression compiled against an operator's column layout:
// column references become ordinals.
type boundExpr interface {
	eval(row Row) (relational.Value, error)
}

type boundCol struct{ ord int }

func (b boundCol) eval(row Row) (relational.Value, error) { return row[b.ord], nil }

// picks reads a list of bound expressions out of each row for the
// operators that read per row: the projection, the aggregate's keys and
// arguments, and the sort keys. A plain column reference is bound to its
// ordinal once, when the plan is built, and read by copying its cell; only
// a computed expression is called per row.
type picks struct {
	ords  []int       // per item: the column's ordinal, or -1 when computed
	exprs []boundExpr // per item: the computed expression, nil for a column
}

// add appends one item. A nil expression (COUNT(*)'s argument, a group
// key's slot among the aggregate arguments) reads NULL.
func (p *picks) add(b boundExpr) {
	ord := -1
	if c, ok := b.(boundCol); ok {
		ord, b = c.ord, nil
	}
	p.ords = append(p.ords, ord)
	p.exprs = append(p.exprs, b)
}

// fill writes each item's value in row to dst, one cell per item.
func (p *picks) fill(dst, row Row) (err error) {
	for i, ord := range p.ords {
		if ord >= 0 {
			dst[i] = row[ord]
			continue
		}
		if e := p.exprs[i]; e == nil {
			dst[i] = relational.Null
		} else if dst[i], err = e.eval(row); err != nil {
			return err
		}
	}
	return nil
}

type boundLit struct{ v relational.Value }

func (b boundLit) eval(Row) (relational.Value, error) { return b.v, nil }

type boundBinary struct {
	op   string
	l, r boundExpr
}

func (b boundBinary) eval(row Row) (relational.Value, error) {
	lv, err := b.l.eval(row)
	if err != nil {
		return relational.Null, err
	}
	switch b.op {
	case "AND":
		if !truthy(lv) {
			return relational.Int(0), nil
		}
		rv, err := b.r.eval(row)
		if err != nil {
			return relational.Null, err
		}
		return boolVal(truthy(rv)), nil
	case "OR":
		if truthy(lv) {
			return relational.Int(1), nil
		}
		rv, err := b.r.eval(row)
		if err != nil {
			return relational.Null, err
		}
		return boolVal(truthy(rv)), nil
	}
	rv, err := b.r.eval(row)
	if err != nil {
		return relational.Null, err
	}
	switch b.op {
	case "=", "!=", "<", "<=", ">", ">=":
		if lv.IsNull() || rv.IsNull() {
			return relational.Null, nil // SQL three-valued logic
		}
		cmp := compareCoerced(lv, rv)
		var ok bool
		switch b.op {
		case "=":
			ok = cmp == 0
		case "!=":
			ok = cmp != 0
		case "<":
			ok = cmp < 0
		case "<=":
			ok = cmp <= 0
		case ">":
			ok = cmp > 0
		case ">=":
			ok = cmp >= 0
		}
		return boolVal(ok), nil
	case "+", "-", "*", "/":
		if lv.IsNull() || rv.IsNull() {
			return relational.Null, nil
		}
		lf, rf := lv.AsFloat(), rv.AsFloat()
		if math.IsNaN(lf) || math.IsNaN(rf) {
			return relational.Null, fmt.Errorf("sqlexec: arithmetic on non-numeric value")
		}
		var out float64
		switch b.op {
		case "+":
			out = lf + rf
		case "-":
			out = lf - rf
		case "*":
			out = lf * rf
		case "/":
			if rf == 0 {
				return relational.Null, nil
			}
			out = lf / rf
		}
		// Keep integer arithmetic integral.
		if b.op != "/" && lv.Kind != relational.KindFloat && rv.Kind != relational.KindFloat {
			return relational.Int(int64(out)), nil
		}
		return relational.Float(out), nil
	}
	return relational.Null, fmt.Errorf("sqlexec: unknown operator %q", b.op)
}

type boundBetween struct {
	target, lo, hi boundExpr
}

func (b boundBetween) eval(row Row) (relational.Value, error) {
	tv, err := b.target.eval(row)
	if err != nil {
		return relational.Null, err
	}
	lv, err := b.lo.eval(row)
	if err != nil {
		return relational.Null, err
	}
	hv, err := b.hi.eval(row)
	if err != nil {
		return relational.Null, err
	}
	if tv.IsNull() || lv.IsNull() || hv.IsNull() {
		return relational.Null, nil
	}
	return boolVal(compareCoerced(tv, lv) >= 0 && compareCoerced(tv, hv) <= 0), nil
}

type boundNot struct{ inner boundExpr }

func (b boundNot) eval(row Row) (relational.Value, error) {
	v, err := b.inner.eval(row)
	if err != nil || v.IsNull() {
		return relational.Null, err
	}
	return boolVal(!truthy(v)), nil
}

type boundIsNull struct {
	target boundExpr
	negate bool
}

func (b boundIsNull) eval(row Row) (relational.Value, error) {
	v, err := b.target.eval(row)
	if err != nil {
		return relational.Null, err
	}
	return boolVal(v.IsNull() != b.negate), nil
}

type boundIn struct {
	target boundExpr
	list   []boundExpr
}

func (b boundIn) eval(row Row) (relational.Value, error) {
	tv, err := b.target.eval(row)
	if err != nil || tv.IsNull() {
		return relational.Null, err
	}
	for _, item := range b.list {
		iv, err := item.eval(row)
		if err != nil {
			return relational.Null, err
		}
		if !iv.IsNull() && compareCoerced(tv, iv) == 0 {
			return relational.Int(1), nil
		}
	}
	return relational.Int(0), nil
}

func boolVal(b bool) relational.Value {
	if b {
		return relational.Int(1)
	}
	return relational.Int(0)
}

func truthy(v relational.Value) bool {
	return !v.IsNull() && v.AsFloat() != 0
}

// timestampLayouts are accepted for string → timestamp coercion, matching
// the paper's example literal '2013-11-18 00:00:00'.
var timestampLayouts = []string{
	"2006-01-02 15:04:05.000",
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
	time.RFC3339,
}

// ParseTimestamp converts a SQL timestamp literal to Unix milliseconds.
func ParseTimestamp(s string) (int64, bool) {
	for _, layout := range timestampLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMilli(), true
		}
	}
	return 0, false
}

// compareCoerced compares values, coercing string literals against
// timestamps ('2013-11-18 00:00:00' BETWEEN on a TIMESTAMP column).
func compareCoerced(a, b relational.Value) int {
	if a.Kind == relational.KindTime && b.Kind == relational.KindString {
		if ms, ok := ParseTimestamp(b.S); ok {
			b = relational.Time(ms)
		}
	}
	if b.Kind == relational.KindTime && a.Kind == relational.KindString {
		if ms, ok := ParseTimestamp(a.S); ok {
			a = relational.Time(ms)
		}
	}
	return relational.Compare(a, b)
}

// bind compiles e against the column layout, resolving column references
// case-insensitively (SQL identifiers are case-insensitive in this
// dialect).
func bind(e sqlparse.Expr, cols []ColMeta) (boundExpr, error) {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		ord, err := resolveColumn(x, cols)
		if err != nil {
			return nil, err
		}
		return boundCol{ord}, nil
	case *sqlparse.Literal:
		return boundLit{x.Val}, nil
	case *sqlparse.BinaryExpr:
		l, err := bind(x.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := bind(x.R, cols)
		if err != nil {
			return nil, err
		}
		return boundBinary{x.Op, l, r}, nil
	case *sqlparse.BetweenExpr:
		t, err := bind(x.Target, cols)
		if err != nil {
			return nil, err
		}
		lo, err := bind(x.Lo, cols)
		if err != nil {
			return nil, err
		}
		hi, err := bind(x.Hi, cols)
		if err != nil {
			return nil, err
		}
		return boundBetween{t, lo, hi}, nil
	case *sqlparse.NotExpr:
		inner, err := bind(x.Inner, cols)
		if err != nil {
			return nil, err
		}
		return boundNot{inner}, nil
	case *sqlparse.IsNullExpr:
		t, err := bind(x.Target, cols)
		if err != nil {
			return nil, err
		}
		return boundIsNull{t, x.Negate}, nil
	case *sqlparse.InExpr:
		t, err := bind(x.Target, cols)
		if err != nil {
			return nil, err
		}
		list := make([]boundExpr, len(x.List))
		for i, item := range x.List {
			b, err := bind(item, cols)
			if err != nil {
				return nil, err
			}
			list[i] = b
		}
		return boundIn{t, list}, nil
	case *sqlparse.FuncExpr:
		if x.IsAggregate() {
			return nil, fmt.Errorf("sqlexec: aggregate %s used outside an aggregation context", x.Name)
		}
		return bindScalarFunc(x, cols)
	}
	return nil, fmt.Errorf("sqlexec: cannot bind %T", e)
}

// boundScalar evaluates a scalar function over bound arguments.
type boundScalar struct {
	name string
	args []boundExpr
}

func (b boundScalar) eval(row Row) (relational.Value, error) {
	vals := make([]relational.Value, len(b.args))
	for i, a := range b.args {
		v, err := a.eval(row)
		if err != nil {
			return relational.Null, err
		}
		vals[i] = v
	}
	switch b.name {
	case "TIME_BUCKET":
		// TIME_BUCKET(width_ms, ts): floor-align ts to the bucket grid,
		// the downsampling primitive for historian roll-ups.
		if vals[0].IsNull() || vals[1].IsNull() {
			return relational.Null, nil
		}
		width := vals[0].AsInt()
		if width <= 0 {
			return relational.Null, fmt.Errorf("sqlexec: TIME_BUCKET width must be positive")
		}
		ts := vals[1].AsInt()
		return relational.Time(model.BucketFloor(ts, width)), nil
	case "ABS":
		if vals[0].IsNull() {
			return relational.Null, nil
		}
		return relational.Float(math.Abs(vals[0].AsFloat())), nil
	case "FLOOR":
		if vals[0].IsNull() {
			return relational.Null, nil
		}
		return relational.Float(math.Floor(vals[0].AsFloat())), nil
	case "CEIL":
		if vals[0].IsNull() {
			return relational.Null, nil
		}
		return relational.Float(math.Ceil(vals[0].AsFloat())), nil
	case "ROUND":
		if vals[0].IsNull() {
			return relational.Null, nil
		}
		return relational.Float(math.Round(vals[0].AsFloat())), nil
	}
	return relational.Null, fmt.Errorf("sqlexec: unknown function %q", b.name)
}

// scalarArity maps supported scalar functions to their argument counts.
var scalarArity = map[string]int{
	"TIME_BUCKET": 2, "ABS": 1, "FLOOR": 1, "CEIL": 1, "ROUND": 1,
}

func bindScalarFunc(x *sqlparse.FuncExpr, cols []ColMeta) (boundExpr, error) {
	want, ok := scalarArity[x.Name]
	if !ok {
		return nil, fmt.Errorf("sqlexec: unknown function %q", x.Name)
	}
	if len(x.Args) != want {
		return nil, fmt.Errorf("sqlexec: %s takes %d arguments, got %d", x.Name, want, len(x.Args))
	}
	args := make([]boundExpr, len(x.Args))
	for i, a := range x.Args {
		b, err := bind(a, cols)
		if err != nil {
			return nil, err
		}
		args[i] = b
	}
	return boundScalar{name: x.Name, args: args}, nil
}

// resolveColumn finds the ordinal of a column reference in a layout.
func resolveColumn(ref *sqlparse.ColumnRef, cols []ColMeta) (int, error) {
	found := -1
	for i, c := range cols {
		if !strings.EqualFold(c.Name, ref.Name) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(c.Table, ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqlexec: ambiguous column %q", ref)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sqlexec: unknown column %q", ref)
	}
	return found, nil
}

// exprKind infers the result type of a bound-able expression for output
// column metadata.
func exprKind(e sqlparse.Expr, cols []ColMeta) relational.Kind {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		if ord, err := resolveColumn(x, cols); err == nil {
			return cols[ord].Kind
		}
	case *sqlparse.Literal:
		return x.Val.Kind
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return relational.KindFloat
		default:
			return relational.KindInt
		}
	case *sqlparse.FuncExpr:
		switch x.Name {
		case "COUNT":
			return relational.KindInt
		case "TIME_BUCKET":
			return relational.KindTime
		}
		return relational.KindFloat
	}
	return relational.KindNull
}
