package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

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
	members := c.GroupMembers(groups[0])
	if len(members) != 4 {
		t.Fatalf("first group has %d members", len(members))
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
// every source computes — ascending ids whatever the registration order,
// the own-record sources being the non-MG ones — before and after a
// reopen, and checks callers get copies.
func TestSchemaSourceLists(t *testing.T) {
	f := pagestore.NewMemFile()
	open := func() (*Catalog, *pagestore.Store) {
		store, err := pagestore.Open(f, pagestore.Options{PoolPages: 2048})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(store, 4)
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
		}
		ids := c.SourcesBySchema(a.ID)
		ids[0] = -1
		if c.SourcesBySchema(a.ID)[0] == -1 {
			t.Fatal("SourcesBySchema hands out the catalog's own list")
		}
	}
	check(c)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	c, store = open()
	defer store.Close()
	check(c)
}

func TestRouterLookup(t *testing.T) {
	c, _ := openCatalog(t, 0)
	s, _ := c.CreateSchemaType("t", envTags())
	var ids []int64
	for i := 0; i < 10; i++ {
		ds, _ := c.RegisterSource(model.DataSource{SchemaID: s.ID, IntervalMs: 10})
		c.UpdateStats(ds.ID, model.SourceStats{PointCount: int64(i)})
		ids = append(ids, ds.ID)
	}
	stats := c.RouterLookup(ids)
	if len(stats) != 10 {
		t.Fatalf("lookup returned %d rows", len(stats))
	}
	if stats[3].PointCount != 3 {
		t.Fatalf("router stats wrong: %+v", stats[3])
	}
}

// TestResolve covers the batch lookup behind ingest validation: every
// entry found, an unknown source, and a source whose schema record was
// lost (it still loads at reopen, without its schema). Resolve stops at
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
		if l.Source != ds || l.Schema != schema {
			t.Fatalf("entry %d: resolved (%v, %v), want (%v, %v)", i, l.Source, l.Schema, ds, schema)
		}
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
	if c.GroupSize() != DefaultGroupSize {
		t.Fatalf("GroupSize = %d", c.GroupSize())
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
