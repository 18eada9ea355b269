package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"odh"
)

// wireFixture is a historian whose joined result has every cell kind the
// wire renders: ids and timestamps (INT, TIMESTAMP), tag values including
// -0, 1e21 and fractions (FLOAT), NULL tags, and strings, one with a tab.
func wireFixture(t *testing.T) *odh.Historian {
	t.Helper()
	h, err := odh.Open("", odh.Options{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	schema, err := h.CreateSchema(odh.SchemaType{Name: "environ", Tags: []odh.TagDef{{Name: "temperature"}, {Name: "wind"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CreateVirtualTable("environ_data_v", "environ"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`CREATE TABLE sensor_info (id BIGINT, area VARCHAR(16), height DOUBLE)`,
		`INSERT INTO sensor_info VALUES (1, 'north', 2.5), (2, 'south	yard', NULL)`,
	} {
		if _, err := h.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	w := h.Writer()
	for id := int64(1); id <= 2; id++ {
		if _, err := h.RegisterSource(odh.DataSource{ID: id, SchemaID: schema.ID, Regular: true, IntervalMs: 1000}); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 300; i++ {
			temp, wind := float64(i)*0.1-7, float64(id)*1e21
			switch {
			case i == 5:
				temp = math.Copysign(0, -1)
			case i%3 == 0:
				wind = odh.NullValue
			}
			if err := w.WritePoint(id, 1_000_000+1000*i, temp, wind); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return h
}

// joinedRows selects the first n timestamps of both sensors, joined with
// their relational rows.
func joinedRows(n int) string {
	return fmt.Sprintf(`SELECT * FROM environ_data_v v, sensor_info s WHERE v.id = s.id AND timestamp < %d`, 1_000_000+1000*n)
}

// TestWireRowsAreTheOldRendering holds handleSQL to the rendering the wire
// had when every cell was String()ed and joined: header, one line per
// row, trailer — the same bytes.
func TestWireRowsAreTheOldRendering(t *testing.T) {
	h := wireFixture(t)
	s := NewWith(h, Options{})
	for _, sql := range []string{
		joinedRows(300),
		`SELECT wind, temperature * 2, id FROM environ_data_v WHERE id = 2 AND temperature < 0`,
		`SELECT area, COUNT(*), AVG(temperature) FROM environ_data_v v, sensor_info s WHERE v.id = s.id GROUP BY area`,
	} {
		res, err := h.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.FetchAll()
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		fmt.Fprintln(&want, strings.Join(res.Columns, "\t"))
		for _, row := range rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(&want, strings.Join(cells, "\t"))
		}
		fmt.Fprintf(&want, "OK %d\n", len(rows))

		var got bytes.Buffer
		s.handleSQL(&got, sql)
		if got.String() != want.String() {
			t.Fatalf("%s:\ngot  %q\nwant %q", sql, got.String(), want.String())
		}
	}
	for _, cell := range []string{"-0\t", "\t1e+21\t", "\tNULL\t", "\tsouth\tyard\t", "\t-6.9\t"} {
		var got bytes.Buffer
		s.handleSQL(&got, joinedRows(300))
		if !strings.Contains(got.String(), cell) {
			t.Errorf("no %q cell in the joined result: the fixture lost a kind", cell)
		}
	}
}

// TestWireAllocatesPerQueryNotPerRow pins the line buffer: handleSQL's
// allocations beyond draining the same Result do not grow with the rows.
func TestWireAllocatesPerQueryNotPerRow(t *testing.T) {
	h := wireFixture(t)
	s := NewWith(h, Options{})
	var beyond [2]float64
	for k, n := range []int{20, 200} {
		sql := joinedRows(n)
		drain := func() {
			res, err := h.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := res.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if res.RowCount != int64(2*n) {
				t.Fatalf("%s: %d rows, want %d", sql, res.RowCount, 2*n)
			}
		}
		wire := func() { s.handleSQL(io.Discard, sql) }
		beyond[k] = testing.AllocsPerRun(100, wire) - testing.AllocsPerRun(100, drain)
	}
	t.Logf("allocations beyond the drain: %.0f at 40 rows, %.0f at 400", beyond[0], beyond[1])
	// Slack of one allocation per 50 extra rows for the race detector's
	// sync.Pool, which drops pooled scan scratch at random; a per-row
	// allocation adds 360.
	if beyond[1] > beyond[0]+360/50 {
		t.Fatalf("handleSQL allocates per row: %.0f beyond the drain at 40 rows, %.0f at 400", beyond[0], beyond[1])
	}
}
