package odh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"odh/internal/btree"
	"odh/internal/catalog"
	"odh/internal/keyenc"
)

// gapStoreDir holds a store written by a build whose MG registration took
// its group slot before its source record was stored (the parent of the
// fix that made a source join its group only after its Put). It was made
// at BatchSize 16 and GroupSize 4 over an 8-page pool wrapped in a
// fault.File: sources 1–121 registered and wrote their rows, then the
// registration of source 122 ran with the next page read failing, which
// failed its Put after it had taken slot 1 of group 31. Sources 123 and 124
// then took slots 2 and 3, so group 31 holds 121, a hole, 123 and 124.
// Every registered source wrote rows k = 0, 1, 2 at k×60 s, of one tag,
// with value id×10+k. Its fsck was clean at that build.
const (
	gapStoreDir  = "testdata/gapslots"
	gapFailed    = 122
	gapLast      = 124
	gapGroup     = 31
	gapHole      = 1
	gapInterval  = 60_000
	gapRowsEach  = 3
	gapGroupSize = 4
)

// gapTruth is the row count of each source of the gap store: rows k < n at
// k×gapInterval with value id×10+k.
func gapTruth() map[int64]int {
	truth := map[int64]int{}
	for id := int64(1); id <= gapLast; id++ {
		if id != gapFailed {
			truth[id] = gapRowsEach
		}
	}
	return truth
}

// checkOwnRows holds every source of truth to exactly its own rows: read
// by id, by slice, and folded by GROUP BY id and over the whole schema.
func checkOwnRows(t *testing.T, h *Historian, truth map[int64]int, when string) {
	t.Helper()
	value := func(id int64, k int) float64 { return float64(id*10 + int64(k)) }
	own := func(sql string, id int64, r []string) {
		t.Helper()
		var ts int64
		var v float64
		if _, err := fmt.Sscan(r[len(r)-2], &ts); err != nil {
			t.Fatalf("%s: %s: row %v: %v", when, sql, r, err)
		}
		if _, err := fmt.Sscan(r[len(r)-1], &v); err != nil {
			t.Fatalf("%s: %s: row %v: %v", when, sql, r, err)
		}
		if k := int(ts / gapInterval); ts%gapInterval != 0 || k >= truth[id] || v != value(id, k) {
			t.Fatalf("%s: %s: source %d reads ts=%d value=%g (written by source %d)", when, sql, id, ts, v, int64(v)/10)
		}
	}
	var all, sum float64
	short := "" // a short read fails once every read is known to be its own
	for id, n := range truth {
		sql := fmt.Sprintf("SELECT timestamp, v FROM M WHERE id = %d", id)
		rows := fetchCells(t, h, sql)
		for _, r := range rows {
			own(sql, id, r)
		}
		if len(rows) != n && short == "" {
			short = fmt.Sprintf("%s: %s: %d rows, want %d", when, sql, len(rows), n)
		}
		for k := 0; k < n; k++ {
			all++
			sum += value(id, k)
		}
	}
	if short != "" {
		t.Fatal(short)
	}
	sql := fmt.Sprintf("SELECT id, timestamp, v FROM M WHERE timestamp >= 0 AND timestamp < %d", 100*gapInterval)
	seen := map[int64]int{}
	for _, r := range fetchCells(t, h, sql) {
		var id int64
		fmt.Sscan(r[0], &id)
		own(sql, id, r)
		seen[id]++
	}
	for id, n := range truth {
		if seen[id] != n {
			t.Fatalf("%s: %s: source %d reads back %d rows, want %d", when, sql, id, seen[id], n)
		}
	}
	if len(seen) != len(truth) {
		t.Fatalf("%s: %s: %d sources read back, %d registered", when, sql, len(seen), len(truth))
	}
	sql = "SELECT id, COUNT(*), SUM(v), MIN(v), MAX(v) FROM M GROUP BY id"
	groups := fetchCells(t, h, sql)
	for _, r := range groups {
		var id, count int64
		var s, lo, hi float64
		fmt.Sscan(r[0], &id)
		fmt.Sscan(r[1], &count)
		fmt.Sscan(r[2], &s)
		fmt.Sscan(r[3], &lo)
		fmt.Sscan(r[4], &hi)
		n := truth[id]
		want := 0.0
		for k := 0; k < n; k++ {
			want += value(id, k)
		}
		if n == 0 || count != int64(n) || s != want || lo != value(id, 0) || hi != value(id, n-1) {
			t.Fatalf("%s: %s: group %v, want %d rows of source %d summing to %g", when, sql, r, n, id, want)
		}
	}
	if len(groups) != len(truth) {
		t.Fatalf("%s: %s: %d groups, want %d", when, sql, len(groups), len(truth))
	}
	sql = "SELECT COUNT(*), SUM(v) FROM M"
	if got, want := fetchCells(t, h, sql)[0], fmt.Sprint([]string{fmt.Sprint(all), fmt.Sprint(sum)}); fmt.Sprint(got) != want {
		t.Fatalf("%s: %s = %v, want %s", when, sql, got, want)
	}
}

// fetchCells runs sql and returns each row's cells as text.
func fetchCells(t *testing.T, h *Historian, sql string) [][]string {
	t.Helper()
	res, err := h.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := res.FetchAll()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] = append(out[i], v.String())
		}
	}
	return out
}

// checkClean fails unless fsck finds nothing.
func checkClean(t *testing.T, h *Historian, when string) {
	t.Helper()
	rep, err := h.VerifyIntegrity()
	if err != nil || !rep.OK() {
		t.Fatalf("%s: fsck: %v\n%s", when, err, rep)
	}
}

// TestGapStoreReadsOwnRows: a store with a hole in an MG group's slots —
// a registration that an older build lost — opens, and every member reads
// back exactly its own rows by id, by slice, and by GROUP BY id with
// pushdown on and off, also after Reorganize moved the MG rows into
// per-source records; and fsck finds nothing: no row sits at the hole.
func TestGapStoreReadsOwnRows(t *testing.T) {
	for _, pushdown := range []bool{true, false} {
		t.Run(fmt.Sprintf("pushdown=%v", pushdown), func(t *testing.T) {
			h, err := Open(copyStore(t, gapStoreDir), Options{BatchSize: 16, GroupSize: gapGroupSize, DisableAggPushdown: !pushdown})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if _, ok := h.Source(gapFailed); ok {
				t.Fatalf("source %d is registered: the fixture changed", gapFailed)
			}
			g := h.cat.Group(gapGroup)
			if len(g.Members) != gapGroupSize || g.Members[gapHole] != nil || g.Live != gapGroupSize-1 {
				t.Fatalf("group %d: %d slots, %d live; want a hole at slot %d of %d", gapGroup, len(g.Members), g.Live, gapHole, gapGroupSize)
			}
			checkOwnRows(t, h, gapTruth(), "as stored")
			checkClean(t, h, "as stored")
			if err := h.Reorganize("meter", math.MaxInt64); err != nil {
				t.Fatal(err)
			}
			if _, _, mg := h.ts.TreeSizes(); mg != 0 {
				t.Fatalf("Reorganize left %d MG records: none holds a row at the hole", mg)
			}
			checkOwnRows(t, h, gapTruth(), "reorganized")
			checkClean(t, h, "reorganized")
		})
	}
}

// TestGapStoreRegistrationTakesUnusedSlot: a registration into the gap
// store gets a slot no stored source holds — past the hole while the
// group has room, else a new group — and keeps it across a reopen, where
// it and every older member read back exactly their own rows.
func TestGapStoreRegistrationTakesUnusedSlot(t *testing.T) {
	for _, groupSize := range []int{gapGroupSize, 2 * gapGroupSize} {
		t.Run(fmt.Sprintf("group=%d", groupSize), func(t *testing.T) {
			dir := copyStore(t, gapStoreDir)
			opts := Options{BatchSize: 16, GroupSize: groupSize}
			h, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			held := map[[2]int64]int64{}
			for id := range gapTruth() {
				ds, _ := h.Source(id)
				held[[2]int64{ds.Group, int64(ds.GroupSlot)}] = id
			}
			s, _ := h.Schema("meter")
			const newID = 500
			ds, err := h.RegisterSource(DataSource{ID: newID, SchemaID: s.ID, Regular: true, IntervalMs: gapInterval})
			if err != nil {
				t.Fatal(err)
			}
			if by, ok := held[[2]int64{ds.Group, int64(ds.GroupSlot)}]; ok {
				t.Fatalf("source %d took slot %d of group %d, which source %d holds", newID, ds.GroupSlot, ds.Group, by)
			}
			if groupSize > gapGroupSize && (ds.Group != gapGroup || ds.GroupSlot != gapGroupSize) {
				t.Fatalf("source %d took slot %d of group %d, want slot %d of group %d", newID, ds.GroupSlot, ds.Group, gapGroupSize, gapGroup)
			}
			truth := gapTruth()
			truth[newID] = gapRowsEach + 1
			for id := int64(gapFailed + 1); id <= gapLast; id++ {
				truth[id]++ // the group's members write one row more
			}
			for id, n := range truth {
				for k := 0; k < n; k++ {
					if k >= gapRowsEach || id == newID {
						if err := h.Writer().WritePoint(id, int64(k)*gapInterval, float64(id*10+int64(k))); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			checkOwnRows(t, h, truth, "buffered")
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if h, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if again, _ := h.Source(newID); again.Group != ds.Group || again.GroupSlot != ds.GroupSlot {
				t.Fatalf("source %d moved from group %d slot %d to group %d slot %d across a reopen", newID, ds.Group, ds.GroupSlot, again.Group, again.GroupSlot)
			}
			checkOwnRows(t, h, truth, "reopened")
			checkClean(t, h, "reopened")
		})
	}
}

// sourceRecord is a catalog source record as the catalog encodes it, for
// planting damaged ones: id, schema, the regular flag byte, interval,
// group and slot, then an empty name.
func sourceRecord(id, schema, interval, group, slot int64) []byte {
	b := binary.AppendVarint(binary.AppendVarint(nil, id), schema)
	b = binary.AppendVarint(append(b, 1), interval)
	b = binary.AppendVarint(binary.AppendVarint(b, group), slot)
	return binary.AppendUvarint(b, 0)
}

// TestFsckNamesMembershipFaults: a member whose source record is gone
// leaves its rows at a hole — every read drops them, summary folds as
// well as decodes, and fsck names the group — and a source record that
// claims a slot another source holds fails a strict open with a typed
// corruption error naming its key, while recovery mode skips it and fsck
// names it. Fixing neither, a healthy store verifies clean.
func TestFsckNamesMembershipFaults(t *testing.T) {
	dir := t.TempDir()
	opts := Options{BatchSize: 16, GroupSize: 4}
	h, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := h.CreateSchema(SchemaType{Name: "meter", Tags: []TagDef{{Name: "v"}}})
	if err := h.CreateVirtualTable("M", "meter"); err != nil {
		t.Fatal(err)
	}
	truth := map[int64]int{}
	for id := int64(1); id <= 8; id++ {
		if _, err := h.RegisterSource(DataSource{ID: id, SchemaID: s.ID, Regular: true, IntervalMs: gapInterval}); err != nil {
			t.Fatal(err)
		}
		truth[id] = gapRowsEach
	}
	for k := 0; k < gapRowsEach; k++ {
		for id := int64(1); id <= 8; id++ {
			if err := h.Writer().WritePoint(id, int64(k)*gapInterval, float64(id*10+int64(k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkClean(t, h, "healthy")
	victim, _ := h.Source(2)
	holder, _ := h.Source(5)
	plant := func(key int64, rec []byte) {
		t.Helper()
		tr, err := btree.Open(h.page, "cat.sources")
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			err = tr.Delete(keyenc.AppendInt64(nil, key))
		} else {
			err = tr.Put(keyenc.AppendInt64(nil, key), rec)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	plant(victim.ID, nil)
	delete(truth, victim.ID)
	for _, pushdown := range []bool{true, false} {
		o := opts
		o.DisableAggPushdown = !pushdown
		if h, err = Open(dir, o); err != nil {
			t.Fatal(err)
		}
		checkOwnRows(t, h, truth, fmt.Sprintf("source %d deleted, pushdown %v", victim.ID, pushdown))
		rep, err := h.VerifyIntegrity()
		if err != nil || rep.OK() || len(rep.Membership) != 1 || !strings.Contains(rep.Membership[0], fmt.Sprintf("MG group %d holds rows at a slot no stored source holds", victim.Group)) {
			t.Fatalf("fsck with source %d's record deleted: %v\n%s", victim.ID, err, rep)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if h, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	const claimant = 99
	plant(claimant, sourceRecord(claimant, s.ID, gapInterval, holder.Group, int64(holder.GroupSlot)))
	_, err = Open(dir, opts)
	var cre *catalog.CorruptRecordError
	if !errors.As(err, &cre) || cre.Tree != "cat.sources" || cre.Key != fmt.Sprint(claimant) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open over a second claim of slot %d of group %d: %v, want a corruption error naming source record %d", holder.GroupSlot, holder.Group, err, claimant)
	}
	if h, err = Open(dir, Options{BatchSize: 16, GroupSize: 4, Recovery: RecoverLenient}); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, ok := h.Source(claimant); ok {
		t.Fatalf("recovery mode loaded source %d, whose slot source %d holds", claimant, holder.ID)
	}
	checkOwnRows(t, h, truth, "recovery mode")
	rep, err := h.VerifyIntegrity()
	want := fmt.Sprintf("skipped cat.sources record %d: slot %d of MG group %d is held by source %d", claimant, holder.GroupSlot, holder.Group, holder.ID)
	if err != nil || len(rep.Membership) != 2 || !strings.Contains(rep.String(), want) {
		t.Fatalf("fsck in recovery mode: %v\n%s\nwant a line %q", err, rep, want)
	}
}
