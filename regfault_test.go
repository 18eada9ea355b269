package odh

import (
	"errors"
	"testing"

	"odh/internal/fault"
	"odh/internal/pagestore"
)

// TestFailedRegistrationKeepsMemberRows: an MG source whose registration
// fails on a page write leaves no slot behind in its group, so every
// member registered after it reads back exactly its own rows after a
// reopen. Registrations run with the next page write failing, over a pool
// far smaller than the catalog, until one fails; it is not retried.
func TestFailedRegistrationKeepsMemberRows(t *testing.T) {
	ff := fault.Wrap(pagestore.NewMemFile())
	opts := Options{BatchSize: 16, GroupSize: 64, PoolPages: 8, Backing: ff}
	h, err := Open("", opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.CreateSchema(SchemaType{Name: "meter", Tags: []TagDef{{Name: "v"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CreateVirtualTable("M", "meter"); err != nil {
		t.Fatal(err)
	}
	const interval, rows = 60_000, 3
	var ids []int64
	firstFailure := int64(0)
	for id := int64(1); id <= 200; id++ {
		if firstFailure == 0 {
			ff.FailWritesAfter(0)
		}
		_, err := h.RegisterSource(DataSource{ID: id, SchemaID: s.ID, Regular: true, IntervalMs: interval})
		ff.FailWritesAfter(fault.Unlimited)
		switch {
		case err == nil:
			ids = append(ids, id)
		case !errors.Is(err, fault.ErrInjected):
			t.Fatal(err)
		case firstFailure == 0:
			firstFailure = id
		}
	}
	if firstFailure == 0 || ids[len(ids)-1] < firstFailure {
		t.Fatalf("first failed registration %d, last registered source %d: the injection missed", firstFailure, ids[len(ids)-1])
	}
	// value is a point's one tag: its source and its row, so a row read
	// back under another member's id shows.
	value := func(id int64, k int) float64 { return float64(id*10 + int64(k)) }
	for k := 0; k < rows; k++ {
		for _, id := range ids {
			if err := h.Writer().WritePoint(id, int64(k)*interval, value(id, k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if h, err = Open("", opts); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	res, err := h.Query(`SELECT id, timestamp, v FROM M`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for _, r := range got {
		id, k := r[0].AsInt(), int(r[1].AsInt()/interval)
		if v := r[2].AsFloat(); v != value(id, k) {
			t.Fatalf("source %d row %d reads %v, which source %d wrote", id, k, v, int64(v)/10)
		}
		seen[id]++
	}
	for _, id := range ids {
		if seen[id] != rows {
			t.Fatalf("source %d reads back %d rows, want %d", id, seen[id], rows)
		}
	}
	if len(seen) != len(ids) {
		t.Fatalf("%d sources read back, %d registered", len(seen), len(ids))
	}
}
