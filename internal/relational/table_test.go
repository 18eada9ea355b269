package relational

import (
	"math"
	"testing"
	"testing/quick"

	"odh/internal/pagestore"
)

func newDB(t testing.TB, p Profile) *DB {
	t.Helper()
	store, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	db, err := Open(store, p)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func tradeTable(t testing.TB, db *DB) *Table {
	t.Helper()
	tbl, err := db.CreateTable("TRADE", []Column{
		{Name: "T_DTS", Type: KindTime},
		{Name: "T_CA_ID", Type: KindInt},
		{Name: "T_TRADE_PRICE", Type: KindFloat},
		{Name: "T_CHRG", Type: KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateInsertGet(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	rowid, err := tbl.Insert([]Value{Time(1000), Int(7), Float(99.5), Null})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := tbl.Get(rowid)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 1000 || vals[1].I != 7 || vals[2].F != 99.5 || !vals[3].IsNull() {
		t.Fatalf("roundtrip: %v", vals)
	}
	if tbl.RowCount() != 1 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	if _, err := tbl.Insert([]Value{Int(1)}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := newDB(t, ProfileRDB)
	if _, err := db.CreateTable("", nil); err == nil {
		t.Fatal("empty definition accepted")
	}
	if _, err := db.CreateTable("x", []Column{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	db.CreateTable("dup", []Column{{Name: "a", Type: KindInt}})
	if _, err := db.CreateTable("dup", []Column{{Name: "a", Type: KindInt}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

// cursor is what RowCursor and IndexCursor share.
type cursor interface {
	Next() (rowid int64, vals []Value, ok bool)
	Err() error
}

// drain returns the rowids and rows c yields, failing on its error.
func drain(t testing.TB, c cursor) (rowids []int64, rows [][]Value) {
	t.Helper()
	for {
		rowid, vals, ok := c.Next()
		if !ok {
			break
		}
		rowids, rows = append(rowids, rowid), append(rows, vals)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return rowids, rows
}

func TestIndexScanPrefix(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	idx, err := tbl.CreateIndex("by_ca", "T_CA_ID")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(int64(i % 10)), Float(float64(i)), Float(0.1)})
	}
	_, got := drain(t, idx.CursorPrefix([]Value{Int(3)}))
	if len(got) != 10 {
		t.Fatalf("prefix scan hit %d rows, want 10", len(got))
	}
	for _, vals := range got {
		if int(vals[2].F)%10 != 3 {
			t.Fatalf("wrong row: %v", vals)
		}
	}
}

func TestIndexScanRange(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	idx, _ := tbl.CreateIndex("by_dts", "T_DTS")
	for i := 0; i < 100; i++ {
		tbl.Insert([]Value{Time(int64(i * 10)), Int(1), Float(0), Float(0)})
	}
	_, got := drain(t, idx.Cursor(Time(200), Time(400)))
	for _, vals := range got {
		if vals[0].I < 200 || vals[0].I > 400 {
			t.Fatalf("out of range: %d", vals[0].I)
		}
	}
	if len(got) != 21 { // BETWEEN is inclusive: 200..400 step 10
		t.Fatalf("range scan hit %d, want 21", len(got))
	}
	// Open bounds.
	if _, got = drain(t, idx.Cursor(Null, Time(50))); len(got) != 6 {
		t.Fatalf("open-low range = %d, want 6", len(got))
	}
	cnt, err := idx.CountRange(Time(200), Time(400))
	if err != nil || cnt != 21 {
		t.Fatalf("CountRange = %d, %v", cnt, err)
	}
}

func TestIndexBackfill(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	for i := 0; i < 50; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(int64(i)), Float(0), Float(0)})
	}
	idx, err := tbl.CreateIndex("late", "T_CA_ID")
	if err != nil {
		t.Fatal(err)
	}
	if n := idx.tree.Count(); n != 50 {
		t.Fatalf("backfill indexed %d rows", n)
	}
	if _, got := drain(t, idx.CursorPrefix([]Value{Int(25)})); len(got) != 1 || got[0][1].I != 25 {
		t.Fatalf("backfilled entry: %v", got)
	}
}

func TestDuplicateKeysInIndex(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	idx, _ := tbl.CreateIndex("by_ca", "T_CA_ID")
	for i := 0; i < 20; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(5), Float(float64(i)), Float(0)})
	}
	if _, got := drain(t, idx.CursorPrefix([]Value{Int(5)})); len(got) != 20 {
		t.Fatalf("duplicates collapsed: %d entries", len(got))
	}
}

func TestScanAll(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	for i := 0; i < 30; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(int64(i)), Float(0), Float(0)})
	}
	rowids, _ := drain(t, tbl.Cursor())
	for i := 1; i < len(rowids); i++ {
		if rowids[i] <= rowids[i-1] {
			t.Fatal("scan not in rowid order")
		}
	}
	if len(rowids) != 30 {
		t.Fatalf("scanned %d", len(rowids))
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	f := pagestore.NewMemFile()
	store, _ := pagestore.Open(f, pagestore.Options{PoolPages: 4096})
	db, _ := Open(store, ProfileRDB)
	tbl, _ := db.CreateTable("ACCOUNT", []Column{
		{Name: "CA_ID", Type: KindInt},
		{Name: "CA_NAME", Type: KindString},
	})
	tbl.CreateIndex("by_name", "CA_NAME")
	for i := 0; i < 20; i++ {
		tbl.Insert([]Value{Int(int64(i)), Str("acct")})
	}
	store.Close()

	store2, _ := pagestore.Open(f, pagestore.Options{PoolPages: 4096})
	defer store2.Close()
	db2, err := Open(store2, ProfileRDB)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, ok := db2.Table("ACCOUNT")
	if !ok {
		t.Fatal("table lost")
	}
	if tbl2.RowCount() != 20 {
		t.Fatalf("rows lost: %d", tbl2.RowCount())
	}
	if idxs := tbl2.Indexes(); len(idxs) != 1 || idxs[0].Name() != "by_name" || idxs[0].tree.Count() != 20 {
		t.Fatal("index lost")
	}
	// New inserts must not collide with old rowids.
	rid, err := tbl2.Insert([]Value{Int(99), Str("new")})
	if err != nil {
		t.Fatal(err)
	}
	if rid != 21 {
		t.Fatalf("rowid after reopen = %d, want 21", rid)
	}
}

func TestMySQLProfileLargerStorage(t *testing.T) {
	sizeFor := func(p Profile) int64 {
		db := newDB(t, p)
		tbl := tradeTable(t, db)
		tbl.CreateIndex("by_dts", "T_DTS")
		tbl.CreateIndex("by_ca", "T_CA_ID")
		for i := 0; i < 500; i++ {
			tbl.Insert([]Value{Time(int64(i)), Int(int64(i % 7)), Float(1.5), Float(0.25)})
		}
		return tbl.StorageBytes()
	}
	rdb := sizeFor(ProfileRDB)
	mysql := sizeFor(ProfileMySQL)
	if mysql <= rdb {
		t.Fatalf("MySQL profile (%d) not larger than RDB (%d)", mysql, rdb)
	}
	if float64(mysql) > float64(rdb)*1.4 {
		t.Fatalf("profile gap implausible: %d vs %d", mysql, rdb)
	}
}

func TestRowCodecQuick(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, s string, nullMask uint8) bool {
		if math.IsNaN(f) {
			f = 0
		}
		vals := []Value{Int(i), Float(f), Str(s), Time(i)}
		for bit := 0; bit < 4; bit++ {
			if nullMask&(1<<bit) != 0 {
				vals[bit] = Null
			}
		}
		dec, err := decodeRow(encodeRow(vals, 16), 4)
		if err != nil {
			return false
		}
		for j := range vals {
			if vals[j].IsNull() != dec[j].IsNull() {
				return false
			}
			if !vals[j].IsNull() && Compare(vals[j], dec[j]) != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Time(100), Int(100), 0},
		{Null, Int(0), -1},
		{Str("a"), Str("b"), -1},
		{Int(5), Str("a"), -1}, // numbers rank before strings
		{Int(3), Float(3), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
