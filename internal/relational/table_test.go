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
	var got []float64
	err = idx.ScanPrefix([]Value{Int(3)}, func(rowid int64, vals []Value) bool {
		got = append(got, vals[2].F)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("prefix scan hit %d rows, want 10", len(got))
	}
	for _, f := range got {
		if int(f)%10 != 3 {
			t.Fatalf("wrong row: %v", f)
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
	n := 0
	idx.ScanRange(Time(200), Time(400), func(rowid int64, vals []Value) bool {
		if vals[0].I < 200 || vals[0].I > 400 {
			t.Fatalf("out of range: %d", vals[0].I)
		}
		n++
		return true
	})
	if n != 21 { // BETWEEN is inclusive: 200..400 step 10
		t.Fatalf("range scan hit %d, want 21", n)
	}
	// Open bounds.
	n = 0
	idx.ScanRange(Null, Time(50), func(int64, []Value) bool { n++; return true })
	if n != 6 {
		t.Fatalf("open-low range = %d, want 6", n)
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
	if idx.EntryCount() != 50 {
		t.Fatalf("backfill indexed %d rows", idx.EntryCount())
	}
	found := false
	idx.ScanPrefix([]Value{Int(25)}, func(rowid int64, vals []Value) bool {
		found = true
		return true
	})
	if !found {
		t.Fatal("backfilled entry not found")
	}
}

func TestDuplicateKeysInIndex(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	idx, _ := tbl.CreateIndex("by_ca", "T_CA_ID")
	for i := 0; i < 20; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(5), Float(float64(i)), Float(0)})
	}
	n := 0
	idx.ScanPrefix([]Value{Int(5)}, func(int64, []Value) bool { n++; return true })
	if n != 20 {
		t.Fatalf("duplicates collapsed: %d entries", n)
	}
}

func TestScanAll(t *testing.T) {
	db := newDB(t, ProfileRDB)
	tbl := tradeTable(t, db)
	for i := 0; i < 30; i++ {
		tbl.Insert([]Value{Time(int64(i)), Int(int64(i)), Float(0), Float(0)})
	}
	prev := int64(-1)
	n := 0
	tbl.Scan(func(rowid int64, vals []Value) bool {
		if rowid <= prev {
			t.Fatal("scan not in rowid order")
		}
		prev = rowid
		n++
		return true
	})
	if n != 30 {
		t.Fatalf("scanned %d", n)
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
	idx, ok := tbl2.Index("by_name")
	if !ok || idx.EntryCount() != 20 {
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
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if Equal(Null, Null) {
		t.Fatal("NULL = NULL must be false")
	}
	if !Equal(Int(3), Float(3)) {
		t.Fatal("3 = 3.0 must hold")
	}
}
