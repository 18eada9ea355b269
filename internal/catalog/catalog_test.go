package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"odh/internal/btree"
	"odh/internal/fault"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
)

func openCatalog(t *testing.T, groupSize int) (*Catalog, *pagestore.MemFile) {
	t.Helper()
	f := pagestore.NewMemFile()
	store, err := pagestore.Open(f, pagestore.Options{PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	c, err := Open(store, groupSize)
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

func envTags() []model.TagDef {
	return []model.TagDef{{Name: "temperature"}, {Name: "wind"}}
}

func TestCreateSchemaType(t *testing.T) {
	c, _ := openCatalog(t, 0)
	s, err := c.CreateSchemaType("environ", envTags())
	if err != nil {
		t.Fatal(err)
	}
	if s.ID == 0 {
		t.Fatal("no id assigned")
	}
	got, ok := c.SchemaByName("environ")
	if !ok || got.ID != s.ID || len(got.Tags) != 2 {
		t.Fatalf("lookup failed: %+v", got)
	}
	if got.TagIndex("wind") != 1 || got.TagIndex("nope") != -1 {
		t.Fatal("TagIndex wrong")
	}
	if _, err := c.CreateSchemaType("environ", envTags()); err == nil {
		t.Fatal("duplicate schema accepted")
	}
	if _, err := c.CreateSchemaType("", envTags()); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.CreateSchemaType("x", nil); err == nil {
		t.Fatal("empty tags accepted")
	}
	if _, err := c.CreateSchemaType("y", []model.TagDef{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate tag accepted")
	}
}

func TestRegisterHighFrequencySource(t *testing.T) {
	c, _ := openCatalog(t, 0)
	s, _ := c.CreateSchemaType("pmu", envTags())
	ds, err := c.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Group != 0 {
		t.Fatal("high-frequency source got an MG group")
	}
	if ds.IngestStructure() != model.RTS {
		t.Fatalf("structure = %v, want RTS", ds.IngestStructure())
	}
	irr, _ := c.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: false, IntervalMs: 100})
	if irr.IngestStructure() != model.IRTS {
		t.Fatalf("structure = %v, want IRTS", irr.IngestStructure())
	}
}

func TestGroupAssignment(t *testing.T) {
	c, _ := openCatalog(t, 4)
	s, _ := c.CreateSchemaType("meter", envTags())
	var groups []int64
	for i := 0; i < 10; i++ {
		// 15-minute interval: low frequency, must go to MG.
		ds, err := c.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 900000})
		if err != nil {
			t.Fatal(err)
		}
		if ds.IngestStructure() != model.MG {
			t.Fatalf("low-frequency source structure = %v", ds.IngestStructure())
		}
		if ds.Group == 0 {
			t.Fatal("no group assigned")
		}
		groups = append(groups, ds.Group)
		if ds.GroupSlot != i%4 {
			t.Fatalf("source %d slot = %d, want %d", i, ds.GroupSlot, i%4)
		}
	}
	// 10 sources at group size 4 -> 3 groups.
	distinct := map[int64]bool{}
	for _, g := range groups {
		distinct[g] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("got %d groups, want 3", len(distinct))
	}
	g := c.Group(groups[0])
	if len(g.Members) != 4 || g.Live != 4 || g.SchemaID != s.ID || g.WindowMs != 900000 {
		t.Fatalf("first group: %+v; want 4 members of schema %d, window 900000", g, s.ID)
	}
	for slot, ds := range g.Members {
		if ds == nil || ds.Group != groups[0] || ds.GroupSlot != slot {
			t.Fatalf("slot %d: source %+v", slot, ds)
		}
	}
	if got := c.GroupsBySchema(s.ID); len(got) != 3 {
		t.Fatalf("GroupsBySchema = %v", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	c, _ := openCatalog(t, 0)
	if _, err := c.RegisterSource(model.DataSource{SchemaID: 999}); err == nil {
		t.Fatal("unknown schema accepted")
	}
	s, _ := c.CreateSchemaType("t", envTags())
	ds, err := c.RegisterSource(model.DataSource{ID: 7, SchemaID: s.ID, IntervalMs: 10})
	if err != nil || ds.ID != 7 {
		t.Fatalf("explicit id: %v", err)
	}
	if _, err := c.RegisterSource(model.DataSource{ID: 7, SchemaID: s.ID, IntervalMs: 10}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	auto, err := c.RegisterSource(model.DataSource{SchemaID: s.ID, IntervalMs: 10})
	if err != nil || auto.ID == 0 || auto.ID == 7 {
		t.Fatalf("auto id: %d %v", auto.ID, err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	f := pagestore.NewMemFile()
	store, err := pagestore.Open(f, pagestore.Options{PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(store, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := c.CreateSchemaType("environ", envTags())
	c.CreateVirtualTable("environ_data_v", s.ID)
	var lastGroup int64
	for i := 0; i < 6; i++ {
		ds, _ := c.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 900000})
		lastGroup = ds.Group
	}
	c.UpdateStats(1, model.SourceStats{BatchCount: 2, PointCount: 100, BlobBytes: 4000, FirstTS: 10, LastTS: 500, MaxSpanMs: 490})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := pagestore.Open(f, pagestore.Options{PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2, err := Open(store2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.SchemaByName("environ"); !ok {
		t.Fatal("schema lost")
	}
	vt, ok := c2.VirtualTable("environ_data_v")
	if !ok || vt.Name != "environ" {
		t.Fatal("virtual table lost")
	}
	if got := c2.SourceCount(s.ID); got != 6 {
		t.Fatalf("SourceCount = %d", got)
	}
	// The half-full second group must keep filling after reopen.
	ds, _ := c2.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 900000})
	if ds.Group != lastGroup {
		t.Fatalf("reopened catalog started group %d, want to continue %d", ds.Group, lastGroup)
	}
	if ds.GroupSlot != 2 {
		t.Fatalf("slot = %d, want 2", ds.GroupSlot)
	}
	st := c2.Stats(1)
	if st.PointCount != 100 || st.BlobBytes != 4000 {
		t.Fatalf("stats lost: %+v", st)
	}
	agg := c2.SchemaStats(s.ID)
	if agg.PointCount != 100 {
		t.Fatalf("schema aggregate not rebuilt: %+v", agg)
	}
}

func TestStatsMerge(t *testing.T) {
	c, _ := openCatalog(t, 0)
	s, _ := c.CreateSchemaType("t", envTags())
	ds, _ := c.RegisterSource(model.DataSource{SchemaID: s.ID, IntervalMs: 10})
	c.UpdateStats(ds.ID, model.SourceStats{BatchCount: 1, PointCount: 50, BlobBytes: 100, FirstTS: 1000, LastTS: 1500, MaxSpanMs: 500})
	c.UpdateStats(ds.ID, model.SourceStats{BatchCount: 1, PointCount: 50, BlobBytes: 120, FirstTS: 1500, LastTS: 2200, MaxSpanMs: 700})
	st := c.Stats(ds.ID)
	if st.BatchCount != 2 || st.PointCount != 100 || st.BlobBytes != 220 {
		t.Fatalf("merge wrong: %+v", st)
	}
	if st.FirstTS != 1000 || st.LastTS != 2200 || st.MaxSpanMs != 700 {
		t.Fatalf("bounds wrong: %+v", st)
	}
	agg := c.SchemaStats(s.ID)
	if agg.PointCount != 100 {
		t.Fatalf("aggregate: %+v", agg)
	}
}

func TestVirtualTables(t *testing.T) {
	c, _ := openCatalog(t, 0)
	s, _ := c.CreateSchemaType("environ", envTags())
	if err := c.CreateVirtualTable("environ_data_v", s.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("environ_data_v", s.ID); err == nil {
		t.Fatal("duplicate vtable accepted")
	}
	if err := c.CreateVirtualTable("bad", 12345); err == nil {
		t.Fatal("vtable on unknown schema accepted")
	}
	if names := c.VirtualTables(); len(names) != 1 || names[0] != "environ_data_v" {
		t.Fatalf("VirtualTables = %v", names)
	}
}

func TestSourcesBySchema(t *testing.T) {
	c, _ := openCatalog(t, 0)
	a, _ := c.CreateSchemaType("a", envTags())
	b, _ := c.CreateSchemaType("b", envTags())
	for i := 0; i < 5; i++ {
		c.RegisterSource(model.DataSource{SchemaID: a.ID, IntervalMs: 10})
	}
	c.RegisterSource(model.DataSource{SchemaID: b.ID, IntervalMs: 10})
	if got := c.SourcesBySchema(a.ID); len(got) != 5 {
		t.Fatalf("schema a sources = %v", got)
	}
	if got := c.SourcesBySchema(b.ID); len(got) != 1 {
		t.Fatalf("schema b sources = %v", got)
	}
}

// TestSchemaSourceLists holds the per-schema lists to what a pass over
// every source or group computes — ascending ids whatever the registration
// order, the own-record sources being the non-MG ones, the groups those
// whose members are the schema's — before and after a reopen, and checks
// callers get copies. A reopen with a larger group size fills the schema's
// newest group, every time.
func TestSchemaSourceLists(t *testing.T) {
	f := pagestore.NewMemFile()
	groupSize := 4
	open := func() (*Catalog, *pagestore.Store) {
		store, err := pagestore.Open(f, pagestore.Options{PoolPages: 2048})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(store, groupSize)
		if err != nil {
			t.Fatal(err)
		}
		return c, store
	}
	c, store := open()
	a, _ := c.CreateSchemaType("a", envTags())
	b, _ := c.CreateSchemaType("b", envTags())
	rng := rand.New(rand.NewSource(5))
	for _, id := range rng.Perm(60) {
		ds := model.DataSource{ID: int64(100 + id), SchemaID: a.ID, Regular: id%3 == 0, IntervalMs: 10}
		switch {
		case id%2 == 0:
			ds.IntervalMs = 900000 // low frequency: an MG member
		case id%5 == 0:
			ds.SchemaID = b.ID
		}
		if _, err := c.RegisterSource(ds); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // auto ids (1, 2, 3) file in front of the explicit ones
		if _, err := c.RegisterSource(model.DataSource{SchemaID: a.ID, IntervalMs: 10}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(c *Catalog) {
		t.Helper()
		for _, s := range []*model.SchemaType{a, b} {
			var wantIDs []int64
			var wantOwn []int64
			for id, ds := range c.srcCache {
				if ds.SchemaID != s.ID {
					continue
				}
				wantIDs = append(wantIDs, id)
				if ds.IngestStructure() != model.MG {
					wantOwn = append(wantOwn, id)
				}
			}
			slices.Sort(wantIDs)
			slices.Sort(wantOwn)
			if got := c.SourcesBySchema(s.ID); !slices.Equal(got, wantIDs) {
				t.Fatalf("schema %s: SourcesBySchema = %v, want %v", s.Name, got, wantIDs)
			}
			var own []int64
			for _, ds := range c.OwnRecordSources(s.ID) {
				own = append(own, ds.ID)
			}
			if !slices.Equal(own, wantOwn) {
				t.Fatalf("schema %s: OwnRecordSources = %v, want %v", s.Name, own, wantOwn)
			}
			if got := c.SourceCount(s.ID); got != int64(len(wantIDs)) {
				t.Fatalf("schema %s: SourceCount = %d, want %d", s.Name, got, len(wantIDs))
			}
			var wantGroups []int64
			for id, g := range c.groups {
				for _, ds := range g.Members {
					if ds == nil || ds.SchemaID != g.SchemaID || c.srcCache[ds.ID] != ds {
						t.Fatalf("group %d mixes schemas or lost a source: %v", id, g.Members)
					}
				}
				if g.SchemaID == s.ID {
					wantGroups = append(wantGroups, id)
				}
			}
			slices.Sort(wantGroups)
			if got := c.GroupsBySchema(s.ID); !slices.Equal(got, wantGroups) {
				t.Fatalf("schema %s: GroupsBySchema = %v, want %v", s.Name, got, wantGroups)
			}
		}
		for _, hand := range []func(int64) []int64{c.SourcesBySchema, c.GroupsBySchema} {
			ids := hand(a.ID)
			ids[0] = -1
			if hand(a.ID)[0] == -1 {
				t.Fatal("a per-schema list is handed out as the catalog's own")
			}
		}
	}
	check(c)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	c, store = open()
	check(c)
	groups := c.GroupsBySchema(a.ID)
	newest := groups[len(groups)-1]
	if len(c.Group(newest).Members) >= groupSize {
		t.Fatalf("newest group %d is full: the case below tests nothing", newest)
	}
	for i := 0; i < 20; i++ {
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		groupSize++
		c, store = open()
		ds, err := c.RegisterSource(model.DataSource{ID: int64(1000 + i), SchemaID: a.ID, Regular: true, IntervalMs: 900000})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Group != newest {
			t.Fatalf("reopen %d at group size %d: the next MG source joined group %d, want the newest group %d", i+1, groupSize, ds.Group, newest)
		}
	}
	defer store.Close()
	check(c)
}

// TestResolve covers the batch lookup behind ingest validation: every
// entry found, an unknown source, and a source whose schema record was
// lost (it still loads at reopen, without its schema). Every resolved
// entry carries its source's ingest structure. Resolve stops at
// the first entry that does not resolve in full.
func TestResolve(t *testing.T) {
	f := pagestore.NewMemFile()
	store, err := pagestore.Open(f, pagestore.Options{PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	c, err := Open(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := c.CreateSchemaType("environ", envTags())
	gone, _ := c.CreateSchemaType("gone", envTags())
	a, _ := c.RegisterSource(model.DataSource{SchemaID: env.ID, Regular: true, IntervalMs: 10})
	b, _ := c.RegisterSource(model.DataSource{SchemaID: env.ID, IntervalMs: 900000})
	orphan, _ := c.RegisterSource(model.DataSource{SchemaID: gone.ID, IntervalMs: 10})

	ls := []Lookup{{ID: a.ID}, {ID: b.ID}, {ID: a.ID}, {ID: orphan.ID}}
	if got := c.Resolve(ls); got != len(ls) {
		t.Fatalf("Resolve = %d, want %d", got, len(ls))
	}
	for i, l := range ls {
		ds, _ := c.Source(l.ID)
		schema, _ := c.SchemaByID(ds.SchemaID)
		if l.Source != ds || l.Schema != schema || l.Structure != ds.IngestStructure() {
			t.Fatalf("entry %d: resolved (%v, %v, %v), want (%v, %v, %v)", i, l.Source, l.Schema, l.Structure, ds, schema, ds.IngestStructure())
		}
	}
	if ls[0].Structure != model.RTS || ls[1].Structure != model.MG {
		t.Fatalf("structures %v, %v: want RTS for a regular 100 Hz source, MG for a 15-minute one", ls[0].Structure, ls[1].Structure)
	}

	ls = []Lookup{{ID: a.ID}, {ID: 0xDEAD}, {ID: b.ID}}
	if got := c.Resolve(ls); got != 1 || ls[1].Source != nil || ls[1].Schema != nil || ls[0].Source != a {
		t.Fatalf("unknown source: Resolve = %d, entries %+v", got, ls)
	}

	if err := c.schemas.Delete(keyenc.AppendInt64(nil, gone.ID)); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(store, 0); err != nil {
		t.Fatal(err)
	}
	ls = []Lookup{{ID: a.ID}, {ID: orphan.ID}, {ID: b.ID}}
	if got := c.Resolve(ls); got != 1 || ls[1].Source == nil || ls[1].Source.SchemaID != gone.ID || ls[1].Schema != nil {
		t.Fatalf("missing schema: Resolve = %d, entries %+v", got, ls)
	}
}

func TestBatchRegisterMany(t *testing.T) {
	c, _ := openCatalog(t, 8)
	s, _ := c.CreateSchemaType("meters", envTags())
	batch := make([]model.DataSource, 1000)
	for i := range batch {
		batch[i] = model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 900000, Name: fmt.Sprintf("meter-%d", i)}
	}
	out, err := c.RegisterSources(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("registered %d", len(out))
	}
	if got := c.SourceCount(s.ID); got != 1000 {
		t.Fatalf("SourceCount = %d", got)
	}
	if groups := c.GroupsBySchema(s.ID); len(groups) != 125 {
		t.Fatalf("groups = %d, want 125", len(groups))
	}
}

func TestReservedTagNamesRejected(t *testing.T) {
	c, _ := openCatalog(t, 0)
	// A tag may not collide with the schema's id or timestamp column.
	if _, err := c.CreateSchema(model.SchemaType{
		Name: "bad", Tags: []model.TagDef{{Name: "id"}},
	}); err == nil {
		t.Fatal("tag named 'id' accepted")
	}
	if _, err := c.CreateSchema(model.SchemaType{
		Name: "bad2", IDName: "T_CA_ID",
		Tags: []model.TagDef{{Name: "T_CA_ID"}},
	}); err == nil {
		t.Fatal("tag colliding with custom id column accepted")
	}
	// With a custom id name, a tag named "id" is fine.
	if _, err := c.CreateSchema(model.SchemaType{
		Name: "ok", IDName: "vin",
		Tags: []model.TagDef{{Name: "id"}},
	}); err != nil {
		t.Fatalf("non-colliding tag rejected: %v", err)
	}
}

func TestGroupStats(t *testing.T) {
	c, _ := openCatalog(t, 2)
	s, _ := c.CreateSchemaType("g", envTags())
	ds, _ := c.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 900000})
	if err := c.UpdateGroupStats(ds.Group, model.SourceStats{BatchCount: 3, PointCount: 6, BlobBytes: 90}); err != nil {
		t.Fatal(err)
	}
	st := c.GroupStats(ds.Group)
	if st.BatchCount != 3 || st.BlobBytes != 90 {
		t.Fatalf("group stats: %+v", st)
	}
	// Negative deltas (reorg reclaiming records) subtract.
	c.UpdateGroupStats(ds.Group, model.SourceStats{BatchCount: -1, PointCount: -2, BlobBytes: -30})
	st = c.GroupStats(ds.Group)
	if st.BatchCount != 2 || st.PointCount != 4 || st.BlobBytes != 60 {
		t.Fatalf("after negative merge: %+v", st)
	}
	// Group stats never collide with a source of the same numeric id.
	if src := c.Stats(ds.Group); src.BatchCount == 2 && src.BlobBytes == 60 {
		t.Fatal("group stats leaked into source stats keyspace")
	}
	if empty := c.GroupStats(9999); empty.BatchCount != 0 {
		t.Fatalf("phantom group stats: %+v", empty)
	}
}

func TestSchemasOrderedByID(t *testing.T) {
	c, _ := openCatalog(t, 0)
	c.CreateSchemaType("zzz", envTags())
	c.CreateSchemaType("aaa", envTags())
	list := c.Schemas()
	if len(list) != 2 || list[0].Name != "zzz" || list[1].Name != "aaa" {
		t.Fatalf("Schemas() = %v (want creation order by id)", list)
	}
	if c.groupSize != DefaultGroupSize {
		t.Fatalf("group size = %d", c.groupSize)
	}
}

// treeStats decodes the stats tree afresh, keyed like statsMem.
func treeStats(t *testing.T, c *Catalog) map[int64]model.SourceStats {
	t.Helper()
	out := map[int64]model.SourceStats{}
	err := c.stats.Scan(nil, nil, func(k, v []byte) bool {
		id, _, kerr := keyenc.Int64(k)
		st, derr := decodeStats(v)
		if kerr != nil || derr != nil {
			t.Errorf("stats entry %x: %v, %v", k, kerr, derr)
		}
		out[id] = st
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameStats(t *testing.T, when string, got, want map[int64]model.SourceStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", when, len(got), len(want))
	}
	for id, st := range want {
		if got[id] != st {
			t.Fatalf("%s: entry %d is %+v, want %+v", when, id, got[id], st)
		}
	}
}

// TestStatsWriteThrough: reads are served from the memory copy of the stats
// tree, so the two must agree — after any sequence of merges and
// replacements, to a catalog opened afresh, and when a Put fails: the
// memory copy then stays what the tree still holds.
func TestStatsWriteThrough(t *testing.T) {
	file := fault.Wrap(pagestore.NewMemFile())
	// A pool far smaller than the stats tree: a Put has to read its leaf.
	store, err := pagestore.Open(file, pagestore.Options{PoolPages: 16, PoolPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, err := Open(store, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := c.CreateSchemaType("t", envTags())
	var list []model.DataSource
	for i := 0; i < 2000; i++ {
		ds := model.DataSource{SchemaID: s.ID, IntervalMs: 10}
		if i%10 == 0 {
			ds.IntervalMs = 60_000 // low frequency: joins an MG group
		}
		list = append(list, ds)
	}
	srcs, err := c.RegisterSources(list)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	// update applies one random change to one random entry.
	update := func() (key int64, err error) {
		ds := srcs[rng.Intn(len(srcs))]
		first := rng.Int63n(1_000_000) - 500_000
		st := model.SourceStats{
			BatchCount: rng.Int63n(5) - 1, PointCount: rng.Int63n(600) - 100, BlobBytes: rng.Int63n(1 << 20),
			FirstTS: first, LastTS: first + rng.Int63n(100_000), MaxSpanMs: rng.Int63n(600_000),
		}
		if st.HotSpanMs = st.MaxSpanMs; rng.Intn(3) == 0 {
			st.HotSpanMs, st.HasCold, st.ColdLastTS = rng.Int63n(st.MaxSpanMs+1), true, first
		}
		set := rng.Intn(8) == 0
		switch {
		case ds.Group != 0 && set:
			_, err = c.SetGroupStats(ds.Group, st)
			return -ds.Group, err
		case ds.Group != 0:
			return -ds.Group, c.UpdateGroupStats(ds.Group, st)
		case set:
			_, err = c.SetStats(ds.ID, st)
			return ds.ID, err
		}
		return ds.ID, c.UpdateStats(ds.ID, st)
	}
	for i := 0; i < 5000; i++ {
		if _, err := update(); err != nil {
			t.Fatal(err)
		}
	}
	sameStats(t, "after random updates", c.statsMem, treeStats(t, c))
	if len(c.statsMem) < 1000 {
		t.Fatalf("only %d entries: the tree fits the pool", len(c.statsMem))
	}

	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(store, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, "after reopen", c2.statsMem, c.statsMem)
	if got, want := c2.SchemaStats(s.ID), c.SchemaStats(s.ID); got.BatchCount != want.BatchCount || got.PointCount != want.PointCount || got.BlobBytes != want.BlobBytes {
		t.Fatalf("schema aggregate after reopen %+v, kept up by the updates %+v", got, want)
	}

	file.FailReadsAfter(0)
	failed := 0
	for i := 0; i < 200; i++ {
		before := map[int64]model.SourceStats{}
		for k, v := range c.statsMem {
			before[k] = v
		}
		if key, err := update(); err != nil {
			failed++
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatal(err)
			}
			if c.statsMem[key] != before[key] {
				t.Fatalf("entry %d moved to %+v although its Put failed: %v", key, c.statsMem[key], err)
			}
		}
	}
	file.FailReadsAfter(fault.Unlimited)
	if failed == 0 {
		t.Fatal("no Put failed: the injection reached nothing")
	}
	sameStats(t, "after failed Puts", c.statsMem, treeStats(t, c))
}

// TestStatsCodec: a record round-trips with its span bounds and flags; one
// written before the per-tier bounds (six varints) decodes to what its
// writer's lookback trusted; anything cut short in between is corrupt.
func TestStatsCodec(t *testing.T) {
	for _, st := range []model.SourceStats{
		{},
		{BatchCount: 9, PointCount: 2048, BlobBytes: 70_000, FirstTS: -5, LastTS: 1_023_501, MaxSpanMs: 511_500, HotSpanMs: 63_501, HasCold: true, ColdLastTS: -5},
		{BatchCount: 1, PointCount: 1, MaxSpanMs: 7, HotSpanMs: 7, Unknown: true},
	} {
		enc := encodeStats(st)
		if got, err := decodeStats(enc); err != nil || got != st {
			t.Fatalf("round trip of %+v: %+v, %v", st, got, err)
		}
		legacy := enc[:len(enc)-1-len(binary.AppendVarint(binary.AppendVarint(nil, st.HotSpanMs), st.ColdLastTS))]
		want := st
		want.HotSpanMs, want.HasCold, want.ColdLastTS, want.Unknown = st.MaxSpanMs, true, math.MaxInt64, false
		if got, err := decodeStats(legacy); err != nil || got != want {
			t.Fatalf("six-varint record of %+v: %+v, %v; want %+v", st, got, err, want)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := decodeStats(enc[:n]); n != len(legacy) && err == nil {
				t.Fatalf("%+v cut to %d of %d bytes decoded", st, n, len(enc))
			}
		}
	}
}

// TestFailedRegistrationLeavesNoMember: a registration whose Put fails
// leaves nothing in an MG group — no member without a source, so every
// member's table index stays its stored slot across a reopen, and a
// retry of the failed id registers it once. Every registration runs with
// the next page write failing, over a pool far smaller than the source
// tree, so Puts fail wherever an eviction falls, a new group's first
// member included.
func TestFailedRegistrationLeavesNoMember(t *testing.T) {
	file := fault.Wrap(pagestore.NewMemFile())
	open := func() (*Catalog, *pagestore.Store) {
		store, err := pagestore.Open(file, pagestore.Options{PoolPages: 8, PoolPartitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(store, 64)
		if err != nil {
			t.Fatal(err)
		}
		return c, store
	}
	c, store := open()
	s, _ := c.CreateSchemaType("meter", envTags())
	// check requires each MG source to sit in exactly one group, at the
	// index of its stored slot, and every member to have a source.
	check := func(c *Catalog, when string) map[int64]int {
		t.Helper()
		pos := map[int64]int{}
		for _, g := range c.GroupsBySchema(s.ID) {
			for slot, ds := range c.Group(g).Members {
				if ds == nil {
					t.Fatalf("%s: group %d slot %d has no source", when, g, slot)
				}
				if ds.Group != g || ds.GroupSlot != slot {
					t.Fatalf("%s: group %d slot %d holds source %d stored at group %d slot %d", when, g, slot, ds.ID, ds.Group, ds.GroupSlot)
				}
				if _, dup := pos[ds.ID]; dup {
					t.Fatalf("%s: source %d is a member twice", when, ds.ID)
				}
				pos[ds.ID] = slot
			}
		}
		if got := c.SourceCount(s.ID); got != int64(len(pos)) {
			t.Fatalf("%s: %d sources, %d group members", when, got, len(pos))
		}
		return pos
	}
	var failed, firsts int
	for id := int64(1); id <= 1500; id++ {
		ds := model.DataSource{ID: id, SchemaID: s.ID, Regular: true, IntervalMs: 900000}
		file.FailWritesAfter(0)
		_, err := c.RegisterSource(ds)
		file.FailWritesAfter(fault.Unlimited)
		if err == nil {
			continue
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatal(err)
		}
		failed++
		if _, ok := c.Source(id); ok {
			t.Fatalf("source %d is registered although its registration failed", id)
		}
		check(c, fmt.Sprintf("after source %d failed", id))
		if int(c.SourceCount(s.ID))%64 == 0 {
			firsts++ // the failed source would have opened a group
		}
		if _, err := c.RegisterSource(ds); err != nil {
			t.Fatalf("retry of source %d: %v", id, err)
		}
	}
	if failed == 0 || firsts == 0 {
		t.Fatalf("%d registrations failed, %d of them a group's first member: the injection missed", failed, firsts)
	}
	before := check(c, "after the retries")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	c, store = open()
	defer store.Close()
	after := check(c, "after a reopen")
	for id, slot := range before {
		if after[id] != slot {
			t.Fatalf("source %d moved from slot %d to %d across a reopen", id, slot, after[id])
		}
	}
}

// TestBadRecordsFailStrictLoad: a schema, source or virtual-table record
// that does not load — one that does not decode, an MG source whose slot
// is out of range or held by another stored source — fails a strict open
// with a CorruptRecordError naming its tree and key, and is skipped by a
// lenient one, which lists it in Skipped. A skipped member's slot stays a
// hole that no later registration takes, and a group whose slot 0 is a
// hole takes its window from its lowest stored slot.
func TestBadRecordsFailStrictLoad(t *testing.T) {
	healthy := pagestore.NewMemFile()
	reopen := func(f *pagestore.MemFile, lenient bool) (*Catalog, *pagestore.Store, error) {
		t.Helper()
		store, err := pagestore.Open(f, pagestore.Options{PoolPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		c, err := open(store, 4, lenient)
		return c, store, err
	}
	c, store, err := reopen(healthy, false)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := c.CreateSchemaType("meter", envTags())
	var members []*model.DataSource
	for i := 0; i < 3; i++ {
		ds, err := c.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 60_000 * int64(i+1)})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, ds)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	size, _ := healthy.Size()
	image := make([]byte, size)
	if _, err := healthy.ReadAt(image, 0); err != nil {
		t.Fatal(err)
	}
	first := *members[0]
	clash, far := first, first
	clash.ID, far.ID, far.GroupSlot = 90, 91, maxGroupSlots
	for _, tc := range []struct {
		tree, key string
		k, v      []byte
	}{
		{"cat.sources", fmt.Sprint(first.ID), keyenc.AppendInt64(nil, first.ID), []byte{0x80}},
		{"cat.sources", "90", keyenc.AppendInt64(nil, 90), encodeSource(&clash)},
		{"cat.sources", "91", keyenc.AppendInt64(nil, 91), encodeSource(&far)},
		{"cat.schemas", fmt.Sprint(s.ID + 1), keyenc.AppendInt64(nil, s.ID+1), []byte("{")},
		{"cat.vtables", `"N"`, keyenc.AppendString(nil, "N"), []byte{1}},
	} {
		f := pagestore.NewMemFile()
		if _, err := f.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		c, store, err := reopen(f, false)
		if err != nil {
			t.Fatal(err)
		}
		tree := map[string]*btree.Tree{"cat.sources": c.sources, "cat.schemas": c.schemas, "cat.vtables": c.vtables}[tc.tree]
		if err := tree.Put(tc.k, tc.v); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = reopen(f, false)
		var cre *CorruptRecordError
		if !errors.As(err, &cre) || cre.Tree != tc.tree || cre.Key != tc.key || !errors.Is(err, pagestore.ErrCorrupt) {
			t.Fatalf("strict open over a bad %s record %s: %v", tc.tree, tc.key, err)
		}
		if c, _, err = reopen(f, true); err != nil {
			t.Fatal(err)
		}
		if sk := c.Skipped(); len(sk) != 1 || *sk[0] != *cre {
			t.Fatalf("lenient open over a bad %s record %s skipped %v", tc.tree, tc.key, sk)
		}
		g, want := c.Group(first.Group), members
		if tc.key == fmt.Sprint(first.ID) {
			want = []*model.DataSource{nil, members[1], members[2]}
		}
		for slot, ds := range g.Members {
			if (ds == nil) != (want[slot] == nil) || ds != nil && *ds != *want[slot] {
				t.Fatalf("slot %d holds %+v, want %+v", slot, ds, want[slot])
			}
		}
		if w := slices.IndexFunc(want, func(ds *model.DataSource) bool { return ds != nil }); len(g.Members) != 3 || g.WindowMs != want[w].IntervalMs {
			t.Fatalf("group %d: %+v, want 3 slots and the window of slot %d", first.Group, g, w)
		}
		ds, err := c.RegisterSource(model.DataSource{SchemaID: s.ID, Regular: true, IntervalMs: 60_000})
		if err != nil || ds.Group != first.Group || ds.GroupSlot != 3 {
			t.Fatalf("registration beside a bad record: %+v, %v; want slot 3 of group %d", ds, err, first.Group)
		}
	}
}

// TestSlotsStayUniqueUnderRandomFailures: MG registrations whose page
// writes fail after a random count, over a pool far smaller than the
// source tree,
// with reopens between rounds at several group sizes, leave every stored
// source at a slot of its own in its group's table, at the slot it stored,
// which no reopen moves; Live counts the table's members.
func TestSlotsStayUniqueUnderRandomFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	file := fault.Wrap(pagestore.NewMemFile())
	var c *Catalog
	var store *pagestore.Store
	reopen := func(groupSize int) {
		t.Helper()
		if store != nil {
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if store, err = pagestore.Open(file, pagestore.Options{PoolPages: 8, PoolPartitions: 1}); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(store, groupSize); err != nil {
			t.Fatal(err)
		}
	}
	reopen(4)
	defer func() { store.Close() }()
	s, _ := c.CreateSchemaType("meter", envTags())
	at := map[int64][2]int64{} // source -> (group, slot), as first seen
	check := func(when string) {
		t.Helper()
		held := map[[2]int64]bool{}
		for _, g := range c.GroupsBySchema(s.ID) {
			group := c.Group(g)
			live := 0
			for slot, ds := range group.Members {
				if ds == nil {
					continue
				}
				live++
				here := [2]int64{g, int64(slot)}
				if ds.Group != g || ds.GroupSlot != slot || held[here] {
					t.Fatalf("%s: group %d slot %d holds source %d stored at group %d slot %d (held twice: %v)", when, g, slot, ds.ID, ds.Group, ds.GroupSlot, held[here])
				}
				held[here] = true
				if was, ok := at[ds.ID]; ok && was != here {
					t.Fatalf("%s: source %d moved from %v to %v", when, ds.ID, was, here)
				}
				at[ds.ID] = here
			}
			if live != group.Live {
				t.Fatalf("%s: group %d counts %d live members, its table holds %d", when, g, group.Live, live)
			}
		}
		if n := c.SourceCount(s.ID); int(n) != len(held) {
			t.Fatalf("%s: %d sources, %d group members", when, n, len(held))
		}
	}
	failed := 0
	for round, groupSize := range []int{1, 7, 64, 3, 16, 4} {
		for i := 1; i <= 500; i++ {
			file.FailWritesAfter(rng.Intn(4))
			_, err := c.RegisterSource(model.DataSource{ID: int64(round*1000 + i), SchemaID: s.ID, Regular: true, IntervalMs: 900000})
			file.FailWritesAfter(fault.Unlimited)
			if err != nil && !errors.Is(err, fault.ErrInjected) {
				t.Fatal(err)
			}
			if err != nil {
				failed++
			}
		}
		check(fmt.Sprintf("round %d", round))
		reopen(groupSize)
		check(fmt.Sprintf("reopened at group size %d", groupSize))
	}
	if failed == 0 {
		t.Fatal("no registration failed: the injection reached nothing")
	}
}
