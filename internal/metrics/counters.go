package metrics

import (
	"fmt"
	"reflect"
	"strings"
)

// Walk calls fn with the name and value of every counter of v: each
// exported int64 or float64 field of the struct v (or *v), in declaration
// order, an embedded struct's counters in place of the embedding field.
// A layer declares its counters once, in its own Stats struct that outer
// layers embed, and Walk and Add are all that list them. value is an
// int64 or a float64, so fmt prints integers as integers. The name is the
// field name in snake_case with acronyms kept whole: IOBytesRead is
// io_bytes_read, WALRecords is wal_records.
func Walk(v any, fn func(name string, value any)) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	counters(rv.Type(), nil, func(path []int, f reflect.StructField) {
		if x := rv.FieldByIndex(path); x.CanInt() {
			fn(snakeCase(f.Name), x.Int())
		} else {
			fn(snakeCase(f.Name), x.Float())
		}
	})
}

// Add adds each int64 counter of src, a counter struct or a pointer to
// one, to the same counter of *dst, recursing into embedded structs as
// Walk does. Rates are left alone: the caller recomputes them from the
// sums.
func Add(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.Indirect(reflect.ValueOf(src))
	if d.Type() != s.Type() {
		panic(fmt.Sprintf("metrics.Add: %v into %v", s.Type(), d.Type()))
	}
	counters(d.Type(), nil, func(path []int, f reflect.StructField) {
		if x := d.FieldByIndex(path); x.CanInt() {
			x.SetInt(x.Int() + s.FieldByIndex(path).Int())
		}
	})
}

// counters calls fn with the field index path and the field of every
// counter of struct type t, whose own path is path.
func counters(t reflect.Type, path []int, fn func(path []int, f reflect.StructField)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		p := append(path[:len(path):len(path)], i)
		switch k := f.Type.Kind(); {
		case f.Anonymous && k == reflect.Struct:
			counters(f.Type, p, fn)
		case f.IsExported() && (k == reflect.Int64 || k == reflect.Float64):
			fn(p, f)
		}
	}
}

// snakeCase turns a Go field name into a counter name: a word starts at
// an upper-case letter after a lower-case one or a digit, and at the last
// capital of an acronym run when a lower-case letter follows it.
func snakeCase(name string) string {
	upper := func(i int) bool { return i < len(name) && 'A' <= name[i] && name[i] <= 'Z' }
	lower := func(i int) bool { return i < len(name) && 'a' <= name[i] && name[i] <= 'z' }
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if upper(i) {
			if i > 0 && (!upper(i-1) || lower(i+1)) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}
