package sqlparse

import (
	"fmt"
	"strings"

	"odh/internal/relational"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Where   Expr // nil when absent; conjunctions are nested And exprs
	GroupBy []Expr
	Having  Expr // nil when absent; filters aggregated groups
	OrderBy []OrderItem
	Limit   int  // -1 when absent
	Explain bool // EXPLAIN SELECT ...
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection. Star items select every column (optionally
// qualified: t.*).
type SelectItem struct {
	Star      bool
	StarTable string // qualifier for t.*
	Expr      Expr
	Alias     string
}

// TableRef names a table in FROM, with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the query refers to this table by.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CreateTableStmt creates a relational table.
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column of CREATE TABLE.
type ColumnDef struct {
	Name string
	Type relational.Kind
}

// CreateIndexStmt creates a secondary index.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

func (*CreateIndexStmt) stmt() {}

// CreateVirtualTableStmt exposes a registered schema type as a virtual
// table: CREATE VIRTUAL TABLE environ_data_v SCHEMA environ.
type CreateVirtualTableStmt struct {
	Name   string
	Schema string
}

func (*CreateVirtualTableStmt) stmt() {}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table   string
	Columns []string // nil = all columns in order
	Rows    [][]Expr
}

func (*InsertStmt) stmt() {}

// Expr is a scalar expression.
type Expr interface {
	fmt.Stringer
	expr()
}

// ColumnRef names a column, optionally table-qualified.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value.
type Literal struct {
	Val relational.Value
}

func (*Literal) expr() {}

func (l *Literal) String() string {
	if l.Val.Kind == relational.KindString {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

// BinaryExpr applies an operator: comparison (=, !=, <, <=, >, >=),
// logical (AND, OR), or arithmetic (+, -, *, /).
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) expr() {}

func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// BetweenExpr is `target BETWEEN lo AND hi` (inclusive).
type BetweenExpr struct {
	Target Expr
	Lo, Hi Expr
}

func (*BetweenExpr) expr() {}

func (b *BetweenExpr) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.Target, b.Lo, b.Hi)
}

// NotExpr negates a predicate.
type NotExpr struct {
	Inner Expr
}

func (*NotExpr) expr() {}

func (n *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", n.Inner) }

// IsNullExpr is `target IS [NOT] NULL`.
type IsNullExpr struct {
	Target Expr
	Negate bool
}

func (*IsNullExpr) expr() {}

func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.Target)
	}
	return fmt.Sprintf("(%s IS NULL)", e.Target)
}

// FuncExpr is a function call: the aggregates COUNT(*)/COUNT/SUM/AVG/
// MIN/MAX, or a scalar function such as TIME_BUCKET(width_ms, ts), ABS,
// FLOOR, CEIL, ROUND.
type FuncExpr struct {
	Name string // upper case
	Star bool   // COUNT(*)
	Args []Expr
}

func (*FuncExpr) expr() {}

func (f *FuncExpr) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// AggregateNames are the recognized aggregate functions.
var AggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncExpr) IsAggregate() bool { return AggregateNames[f.Name] }

// InExpr is `target IN (v1, v2, ...)`.
type InExpr struct {
	Target Expr
	List   []Expr
}

func (*InExpr) expr() {}

func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	return fmt.Sprintf("(%s IN (%s))", e.Target, strings.Join(parts, ", "))
}

// Inspect walks e in pre-order, calling fn with each node; a false return
// skips that node's children. With Rewrite it is the one place that knows
// each node's children.
func Inspect(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		Inspect(x.L, fn)
		Inspect(x.R, fn)
	case *BetweenExpr:
		Inspect(x.Target, fn)
		Inspect(x.Lo, fn)
		Inspect(x.Hi, fn)
	case *NotExpr:
		Inspect(x.Inner, fn)
	case *IsNullExpr:
		Inspect(x.Target, fn)
	case *FuncExpr:
		for _, a := range x.Args {
			Inspect(a, fn)
		}
	case *InExpr:
		Inspect(x.Target, fn)
		for _, v := range x.List {
			Inspect(v, fn)
		}
	}
}

// Rewrite rebuilds e bottom-up: an inner node is copied with its children
// rewritten, and each node, leaves included, is replaced by what fn
// returns for it. e is never modified.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *BinaryExpr:
		e = &BinaryExpr{Op: x.Op, L: Rewrite(x.L, fn), R: Rewrite(x.R, fn)}
	case *BetweenExpr:
		e = &BetweenExpr{Target: Rewrite(x.Target, fn), Lo: Rewrite(x.Lo, fn), Hi: Rewrite(x.Hi, fn)}
	case *NotExpr:
		e = &NotExpr{Inner: Rewrite(x.Inner, fn)}
	case *IsNullExpr:
		e = &IsNullExpr{Target: Rewrite(x.Target, fn), Negate: x.Negate}
	case *FuncExpr:
		e = &FuncExpr{Name: x.Name, Star: x.Star, Args: rewriteList(x.Args, fn)}
	case *InExpr:
		e = &InExpr{Target: Rewrite(x.Target, fn), List: rewriteList(x.List, fn)}
	}
	return fn(e)
}

func rewriteList(list []Expr, fn func(Expr) Expr) []Expr {
	out := make([]Expr, len(list))
	for i, x := range list {
		out[i] = Rewrite(x, fn)
	}
	return out
}

// SplitConjuncts flattens nested ANDs into a conjunct list.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds an AND tree from conjuncts (nil for empty).
func JoinConjuncts(list []Expr) Expr {
	var out Expr
	for _, e := range list {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}
