package relational

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"odh/internal/btree"
	"odh/internal/keyenc"
	"odh/internal/pagestore"
)

// Column describes one table column.
type Column struct {
	Name string
	Type Kind
}

// Profile tunes the engine to emulate a specific relational product in the
// IoT-X comparisons. The knobs change write amplification and per-row
// overhead, reproducing the relative ordering the paper measured.
type Profile struct {
	// Name labels benchmark output ("RDB", "MySQL").
	Name string
	// RowOverhead is padding added to every stored row, modelling the
	// product's record header (tuple header, transaction metadata, ...).
	RowOverhead int
	// IndexRowTax stores this many extra bytes per secondary-index entry
	// (InnoDB-style secondary indexes carry the full PK).
	IndexRowTax int
}

// Predefined profiles for the benchmark candidates.
var (
	ProfileRDB   = Profile{Name: "RDB", RowOverhead: 16, IndexRowTax: 0}
	ProfileMySQL = Profile{Name: "MySQL", RowOverhead: 18, IndexRowTax: 8}
)

// tableMeta is the persisted descriptor of a table.
type tableMeta struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	Indexes []indexMeta
}

type indexMeta struct {
	Name    string `json:"name"`
	Columns []int  `json:"columns"` // column ordinals
}

// DB is a relational database over one page store.
type DB struct {
	mu      sync.RWMutex
	store   *pagestore.Store
	meta    *btree.Tree
	tables  map[string]*Table
	profile Profile
}

// Open opens (or initializes) a relational DB in store.
func Open(store *pagestore.Store, profile Profile) (*DB, error) {
	meta, err := btree.Open(store, "rel.meta")
	if err != nil {
		return nil, err
	}
	db := &DB{store: store, meta: meta, tables: make(map[string]*Table), profile: profile}
	err = meta.Scan(nil, nil, func(k, v []byte) bool {
		var tm tableMeta
		if json.Unmarshal(v, &tm) != nil {
			return true
		}
		t, err := db.openTable(tm)
		if err == nil {
			db.tables[tm.Name] = t
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) openTable(tm tableMeta) (*Table, error) {
	rows, err := btree.Open(db.store, "rel.t."+tm.Name)
	if err != nil {
		return nil, err
	}
	t := &Table{db: db, name: tm.Name, columns: tm.Columns, rows: rows}
	if maxKey, err := rows.MaxKey(); err != nil {
		return nil, err
	} else if maxKey != nil {
		id, _, err := keyenc.Int64(maxKey)
		if err != nil {
			return nil, err
		}
		t.nextRowID = id + 1
	} else {
		t.nextRowID = 1
	}
	for _, im := range tm.Indexes {
		tree, err := btree.Open(db.store, "rel.i."+tm.Name+"."+im.Name)
		if err != nil {
			return nil, err
		}
		t.indexes = append(t.indexes, &Index{table: t, name: im.Name, columns: im.Columns, tree: tree})
	}
	return t, nil
}

// CreateTable creates a table with the given columns.
func (db *DB) CreateTable(name string, columns []Column) (*Table, error) {
	if name == "" || len(columns) == 0 {
		return nil, fmt.Errorf("relational: invalid table definition %q", name)
	}
	seen := map[string]bool{}
	for _, c := range columns {
		if c.Name == "" || seen[c.Name] {
			return nil, fmt.Errorf("relational: table %q: empty or duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("relational: table %q already exists", name)
	}
	tm := tableMeta{Name: name, Columns: columns}
	t, err := db.openTable(tm)
	if err != nil {
		return nil, err
	}
	if err := db.saveMeta(tm); err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

func (db *DB) saveMeta(tm tableMeta) error {
	buf, err := json.Marshal(tm)
	if err != nil {
		return err
	}
	return db.meta.Put(keyenc.AppendString(nil, tm.Name), buf)
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Tables returns all table names.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Table is a heap of rows in a clustered rowid B-tree plus secondary
// indexes.
type Table struct {
	db        *DB
	name      string
	columns   []Column
	rows      *btree.Tree
	indexes   []*Index
	mu        sync.Mutex
	nextRowID int64
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the table schema.
func (t *Table) Columns() []Column { return t.columns }

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// RowCount returns the number of rows.
func (t *Table) RowCount() uint64 { return t.rows.Count() }

// CreateIndex builds a secondary index over the named columns. Existing
// rows are indexed immediately.
func (t *Table) CreateIndex(name string, columnNames ...string) (*Index, error) {
	ords := make([]int, len(columnNames))
	for i, cn := range columnNames {
		ord := t.ColumnIndex(cn)
		if ord < 0 {
			return nil, fmt.Errorf("relational: index %q: unknown column %q", name, cn)
		}
		ords[i] = ord
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, idx := range t.indexes {
		if idx.name == name {
			return nil, fmt.Errorf("relational: index %q already exists on %q", name, t.name)
		}
	}
	tree, err := btree.Open(t.db.store, "rel.i."+t.name+"."+name)
	if err != nil {
		return nil, err
	}
	idx := &Index{table: t, name: name, columns: ords, tree: tree}
	// Backfill. On a failure nothing is registered, so no index serves or
	// persists part of the table.
	cur := t.Cursor()
	for {
		rowid, vals, ok := cur.Next()
		if !ok {
			break
		}
		if err := idx.insert(rowid, vals); err != nil {
			return nil, err
		}
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	t.indexes = append(t.indexes, idx)
	if err := t.persistMeta(); err != nil {
		t.indexes = t.indexes[:len(t.indexes)-1]
		return nil, err
	}
	return idx, nil
}

func (t *Table) persistMeta() error {
	tm := tableMeta{Name: t.name, Columns: t.columns}
	for _, idx := range t.indexes {
		tm.Indexes = append(tm.Indexes, indexMeta{Name: idx.name, Columns: idx.columns})
	}
	return t.db.saveMeta(tm)
}

// Indexes returns all indexes.
func (t *Table) Indexes() []*Index { return t.indexes }

// Insert adds one row, updating every secondary index (the per-record
// B-tree maintenance the paper identifies as the relational bottleneck).
func (t *Table) Insert(vals []Value) (int64, error) {
	if len(vals) != len(t.columns) {
		return 0, fmt.Errorf("relational: %q: %d values for %d columns", t.name, len(vals), len(t.columns))
	}
	t.mu.Lock()
	rowid := t.nextRowID
	t.nextRowID++
	t.mu.Unlock()
	row := encodeRow(vals, t.db.profile.RowOverhead)
	if err := t.rows.Put(keyenc.AppendInt64(nil, rowid), row); err != nil {
		return 0, err
	}
	for _, idx := range t.indexes {
		if err := idx.insert(rowid, vals); err != nil {
			return 0, err
		}
	}
	return rowid, nil
}

// InsertBatch inserts rows one by one; the batch entry point models the
// JDBC executeBatch path the benchmark grants the relational candidates.
func (t *Table) InsertBatch(rows [][]Value) error {
	for _, vals := range rows {
		if _, err := t.Insert(vals); err != nil {
			return err
		}
	}
	return nil
}

// Get fetches a row by rowid.
func (t *Table) Get(rowid int64) ([]Value, error) {
	raw, err := t.rows.Get(keyenc.AppendInt64(nil, rowid))
	if err != nil {
		return nil, err
	}
	return decodeRow(raw, len(t.columns))
}

// StorageBytes reports the payload bytes of the table and its indexes.
func (t *Table) StorageBytes() int64 {
	total := int64(t.rows.ValueBytes())
	// Index keys are not counted by ValueBytes; approximate with entry
	// count times average key width per index.
	for _, idx := range t.indexes {
		total += int64(idx.tree.Count()) * int64(16+t.db.profile.IndexRowTax)
	}
	return total
}

// Index is a secondary index mapping encoded column values to rowids.
type Index struct {
	table   *Table
	name    string
	columns []int
	tree    *btree.Tree
}

// Name returns the index name.
func (i *Index) Name() string { return i.name }

// ColumnOrdinals returns the indexed column positions.
func (i *Index) ColumnOrdinals() []int { return i.columns }

// insert adds an index entry for a row.
func (i *Index) insert(rowid int64, vals []Value) error {
	key := i.keyFor(vals)
	key = keyenc.AppendInt64(key, rowid) // uniquify duplicates
	var tax []byte
	if n := i.table.db.profile.IndexRowTax; n > 0 {
		tax = make([]byte, n)
	}
	return i.tree.Put(key, tax)
}

// keyFor builds the column-value prefix of an index key.
func (i *Index) keyFor(vals []Value) []byte {
	var key []byte
	for _, ord := range i.columns {
		key = appendIndexKey(key, vals[ord])
	}
	return key
}

// CountRange estimates selectivity for the planner: entries with first
// column in [lo, hi].
func (i *Index) CountRange(lo, hi Value) (int, error) {
	n, _, err := i.tree.CountRange(rangeKeys(lo, hi))
	return n, err
}

// --- row codec ---

// encodeRow serializes values with a null bitmap, then pads with the
// profile's per-row overhead.
func encodeRow(vals []Value, overhead int) []byte {
	bm := make([]byte, (len(vals)+7)/8)
	for i, v := range vals {
		if !v.IsNull() {
			bm[i/8] |= 1 << (i % 8)
		}
	}
	buf := append([]byte(nil), bm...)
	for _, v := range vals {
		switch v.Kind {
		case KindNull:
		case KindInt:
			buf = append(buf, byte(KindInt))
			buf = binary.AppendVarint(buf, v.I)
		case KindTime:
			buf = append(buf, byte(KindTime))
			buf = binary.AppendVarint(buf, v.I)
		case KindFloat:
			buf = append(buf, byte(KindFloat))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case KindString:
			buf = append(buf, byte(KindString))
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		}
	}
	if overhead > 0 {
		buf = append(buf, make([]byte, overhead)...)
	}
	return buf
}

// decodeRow deserializes a row of ncols values.
func decodeRow(b []byte, ncols int) ([]Value, error) {
	bmLen := (ncols + 7) / 8
	if len(b) < bmLen {
		return nil, fmt.Errorf("relational: corrupt row")
	}
	bm := b[:bmLen]
	b = b[bmLen:]
	vals := make([]Value, ncols)
	for i := 0; i < ncols; i++ {
		if bm[i/8]&(1<<(i%8)) == 0 {
			vals[i] = Null
			continue
		}
		if len(b) < 1 {
			return nil, fmt.Errorf("relational: corrupt row")
		}
		kind := Kind(b[0])
		b = b[1:]
		switch kind {
		case KindInt, KindTime:
			v, n := binary.Varint(b)
			if n <= 0 {
				return nil, fmt.Errorf("relational: corrupt row")
			}
			vals[i] = Value{Kind: kind, I: v}
			b = b[n:]
		case KindFloat:
			if len(b) < 8 {
				return nil, fmt.Errorf("relational: corrupt row")
			}
			vals[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case KindString:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b[n:])) < l {
				return nil, fmt.Errorf("relational: corrupt row")
			}
			vals[i] = Str(string(b[n : n+int(l)]))
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("relational: corrupt row kind %d", kind)
		}
	}
	return vals, nil
}
