package relational

import (
	"strconv"
	"strings"
	"testing"
)

func TestValueRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(-42), "-42"},
		{Float(1.5), "1.5"},
		{Str("hello"), "hello"},
		{Time(1000), "1000"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Fatalf("%v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "STRING", KindTime: "TIMESTAMP",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d) = %q", k, k.String())
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Fatal("unknown kind rendering")
	}
}

func TestValueConversions(t *testing.T) {
	if Int(7).AsFloat() != 7 || Float(2.5).AsInt() != 2 || Time(9).AsInt() != 9 {
		t.Fatal("numeric conversions")
	}
	if Str("x").AsInt() != 0 {
		t.Fatal("string AsInt should be 0")
	}
	if f := Str("x").AsFloat(); f == f { // NaN check
		t.Fatal("string AsFloat should be NaN")
	}
	if Null.IsNull() != true || Int(0).IsNull() != false {
		t.Fatal("IsNull")
	}
}

func TestDBTablesAndProfile(t *testing.T) {
	db := newDB(t, ProfileMySQL)
	if db.profile.Name != "MySQL" {
		t.Fatalf("profile: %+v", db.profile)
	}
	db.CreateTable("b_table", []Column{{Name: "x", Type: KindInt}})
	db.CreateTable("a_table", []Column{{Name: "x", Type: KindInt}})
	names := db.Tables()
	if len(names) != 2 || names[0] != "a_table" || names[1] != "b_table" {
		t.Fatalf("Tables() = %v", names)
	}
	if _, ok := db.Table("missing"); ok {
		t.Fatal("missing table found")
	}
}

func TestIndexMetadata(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	idx, _ := tbl.CreateIndex("by_ca", "T_CA_ID")
	if idx.Name() != "by_ca" {
		t.Fatalf("Name = %q", idx.Name())
	}
	if ords := idx.ColumnOrdinals(); len(ords) != 1 || ords[0] != 1 {
		t.Fatalf("ordinals: %v", ords)
	}
	if _, err := tbl.CreateIndex("by_ca", "T_CA_ID"); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := tbl.CreateIndex("bad", "nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if got := len(tbl.Indexes()); got != 1 {
		t.Fatalf("Indexes = %d", got)
	}
}

func TestCursorIteratesAll(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	for i := 0; i < 25; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(int64(i)), Float(0), Float(0)})
	}
	cur := tbl.Cursor()
	n := 0
	prev := int64(0)
	for {
		rowid, vals, ok := cur.Next()
		if !ok {
			break
		}
		if rowid <= prev {
			t.Fatal("rowid order")
		}
		prev = rowid
		if len(vals) != 4 {
			t.Fatalf("arity %d", len(vals))
		}
		n++
	}
	if cur.Err() != nil || n != 25 {
		t.Fatalf("cursor: n=%d err=%v", n, cur.Err())
	}
}

func TestIndexCursorOpenBounds(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	idx, _ := tbl.CreateIndex("by_dts", "T_DTS")
	for i := 0; i < 10; i++ {
		tbl.Insert([]Value{Time(int64(i * 10)), Int(1), Float(0), Float(0)})
	}
	count := func(lo, hi Value) int {
		cur := idx.Cursor(lo, hi)
		n := 0
		for {
			if _, _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if cur.Err() != nil {
			t.Fatal(cur.Err())
		}
		return n
	}
	if got := count(Null, Null); got != 10 {
		t.Fatalf("open-open = %d", got)
	}
	if got := count(Time(50), Null); got != 5 {
		t.Fatalf("lo-open = %d", got)
	}
	if got := count(Null, Time(30)); got != 4 {
		t.Fatalf("open-hi = %d", got)
	}
}

func TestStorageBytesGrows(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	before := tbl.StorageBytes()
	for i := 0; i < 100; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(1), Float(2), Float(3)})
	}
	if tbl.StorageBytes() <= before {
		t.Fatal("storage did not grow")
	}
}

func TestDecodeRowCorruption(t *testing.T) {
	good := encodeRow([]Value{Int(1), Str("abc")}, 0)
	if _, err := decodeRow(good[:1], 2); err == nil {
		t.Fatal("truncated row accepted")
	}
	bad := append([]byte(nil), good...)
	bad[1] = 99 // invalid kind byte
	if _, err := decodeRow(bad, 2); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if _, err := decodeRow(nil, 1); err == nil {
		t.Fatal("nil row accepted")
	}
}

func TestGetMissingRow(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	if _, err := tbl.Get(12345); err == nil {
		t.Fatal("missing rowid found")
	}
}

// TestCursorsHandOutStableRows: the B-tree cursor under a RowCursor or an
// IndexCursor only lends its keys and inline values until it moves; the
// rows these cursors return are decoded copies, so a caller may keep every
// one of them while the scan goes on over many leaves.
func TestCursorsHandOutStableRows(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl, err := db.CreateTable("NOTES", []Column{{Name: "k", Type: KindInt}, {Name: "note", Type: KindString}})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := tbl.CreateIndex("by_k", "k")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	note := func(i int) string { return strings.Repeat("n", i%40) + strconv.Itoa(i) }
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert([]Value{Int(int64(i)), Str(note(i))}); err != nil {
			t.Fatal(err)
		}
	}
	type row struct {
		rowid int64
		vals  []Value
	}
	drain := func(next func() (int64, []Value, bool)) []row {
		var rows []row
		for {
			rowid, vals, ok := next()
			if !ok {
				return rows
			}
			rows = append(rows, row{rowid, vals})
		}
	}
	rc := tbl.Cursor()
	ic := idx.Cursor(Null, Null)
	for name, rows := range map[string][]row{"RowCursor": drain(rc.Next), "IndexCursor": drain(ic.Next)} {
		if rc.Err() != nil || ic.Err() != nil || len(rows) != n {
			t.Fatalf("%s: %d rows, errors %v %v; want %d", name, len(rows), rc.Err(), ic.Err(), n)
		}
		for i, r := range rows {
			stored, err := tbl.Get(r.rowid)
			if err != nil || r.vals[0].I != int64(i) || r.vals[1].S != note(i) || stored[1].S != r.vals[1].S {
				t.Fatalf("%s: row %d kept as %v, stored %v (%v)", name, i, r.vals, stored, err)
			}
		}
	}
}
