package relational

import (
	"odh/internal/btree"
	"odh/internal/keyenc"
)

// RowCursor pulls table rows one at a time, in rowid order. The SQL
// executor's sequential-scan operator wraps one.
type RowCursor struct {
	t   *Table
	cur *btree.Cursor
	err error
}

// Cursor returns a RowCursor positioned at the first row.
func (t *Table) Cursor() *RowCursor {
	return &RowCursor{t: t, cur: t.rows.First()}
}

// Next returns the next row; ok is false at the end.
func (c *RowCursor) Next() (rowid int64, vals []Value, ok bool) {
	if c.err != nil || !c.cur.Valid() {
		if c.err == nil {
			c.err = c.cur.Err()
		}
		return 0, nil, false
	}
	rowid, _, err := keyenc.Int64(c.cur.Key())
	if err != nil {
		c.err = err
		return 0, nil, false
	}
	raw, err := c.cur.Value()
	if err != nil {
		c.err = err
		return 0, nil, false
	}
	vals, err = decodeRow(raw, len(c.t.columns))
	if err != nil {
		c.err = err
		return 0, nil, false
	}
	c.cur.Next()
	return rowid, vals, true
}

// Err returns the first error the cursor hit.
func (c *RowCursor) Err() error { return c.err }

// IndexCursor pulls rows via a secondary-index range, fetching each row
// from the clustered tree (the index-scan random-read pattern the paper's
// relational baselines pay on every lookup).
type IndexCursor struct {
	idx *Index
	cur *btree.Cursor
	hi  []byte
	err error
}

// Cursor returns an IndexCursor over entries with first indexed column in
// [lo, hi] (inclusive; pass Null for open bounds).
func (i *Index) Cursor(lo, hi Value) *IndexCursor {
	loKey, hiKey := rangeKeys(lo, hi)
	return &IndexCursor{idx: i, cur: i.tree.Seek(loKey), hi: hiKey}
}

// rangeKeys returns the key bounds of the entries whose first indexed
// column lies in [lo, hi]: nil for a Null (open) side, and as hiKey the
// first key past every entry equal to hi.
func rangeKeys(lo, hi Value) (loKey, hiKey []byte) {
	if !lo.IsNull() {
		loKey = appendIndexKey(nil, lo)
	}
	if !hi.IsNull() {
		hiKey = keyenc.PrefixSuccessor(appendIndexKey(nil, hi))
	}
	return loKey, hiKey
}

// CursorPrefix returns an IndexCursor over entries whose indexed columns
// equal prefix exactly.
func (i *Index) CursorPrefix(prefix []Value) *IndexCursor {
	var lo []byte
	for _, v := range prefix {
		lo = appendIndexKey(lo, v)
	}
	return &IndexCursor{idx: i, cur: i.tree.Seek(lo), hi: keyenc.PrefixSuccessor(lo)}
}

// Next returns the next matching row.
func (c *IndexCursor) Next() (rowid int64, vals []Value, ok bool) {
	for {
		if c.err != nil || !c.cur.Valid() {
			if c.err == nil {
				c.err = c.cur.Err()
			}
			return 0, nil, false
		}
		key := c.cur.Key()
		if c.hi != nil && string(key) >= string(c.hi) {
			return 0, nil, false
		}
		if len(key) < 8 {
			c.cur.Next()
			continue
		}
		rowid, _, err := keyenc.Int64(key[len(key)-8:])
		if err != nil {
			c.err = err
			return 0, nil, false
		}
		vals, err := c.idx.table.Get(rowid)
		if err != nil {
			c.err = err
			return 0, nil, false
		}
		c.cur.Next()
		return rowid, vals, true
	}
}

// Err returns the first error the cursor hit.
func (c *IndexCursor) Err() error { return c.err }
