// Package catalog implements the ODH configuration component (paper §3):
// it manages schema types, data sources, virtual-table registrations, MG
// group assignment, and the per-source statistics that feed the query
// optimizer's cost model. Metadata persists in B-trees inside the same
// page store as the data, so a reopened historian recovers its full
// configuration.
package catalog

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"odh/internal/btree"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
)

// DefaultGroupSize is the number of low-frequency sources packed into one
// MG group when the historian does not override it (it normally uses the
// configured batch size b, mirroring "the MG structure packs b operational
// points by timestamp from a group of data sources").
const DefaultGroupSize = 64

// maxGroupSlots caps an MG group's member table: a larger group size is
// cut to it, and a stored slot outside [0, maxGroupSlots) is a damaged
// record, so no slot read from disk can size a table.
const maxGroupSlots = 1 << 16

// Catalog is the metadata store. All methods are safe for concurrent use.
type Catalog struct {
	mu sync.RWMutex

	schemas   *btree.Tree // schema id -> JSON SchemaType
	sources   *btree.Tree // source id -> encoded DataSource
	stats     *btree.Tree // source id -> encoded SourceStats
	vtables   *btree.Tree // name -> schema id
	counters  *btree.Tree // name -> next id
	groupSize int

	bySchemaName map[string]*model.SchemaType
	bySchemaID   map[int64]*model.SchemaType
	srcCache     map[int64]*model.DataSource
	// statsMem holds every record of the stats tree, keyed like the tree
	// (source id, or negated group id). Reads are served from it; an update
	// writes the tree first, so it never runs ahead of a failed Put.
	statsMem    map[int64]model.SourceStats
	groups      map[int64]*Group
	vtableCache map[string]int64
	schemaAgg   map[int64]model.SourceStats // aggregated stats per schema
	// schemaSources lists each schema's source ids, schemaOwn its sources
	// that ingest into their own records (RTS/IRTS, not MG) and
	// schemaGroups its MG groups, all in ascending id order: a slice query
	// reads them without a pass over every source or group of every schema.
	// A schema fills its newest group.
	schemaSources map[int64][]int64
	schemaOwn     map[int64][]*model.DataSource
	schemaGroups  map[int64][]int64
	// skipped holds the records a lenient load left out, for fsck.
	skipped []*CorruptRecordError
}

// Group is an MG group as the catalog keeps it. A member's slot is its
// stored GroupSlot and nothing else: Members is indexed by it, and a slot
// no stored source holds — a registration an older build lost, a record a
// lenient open skipped — is a hole (nil), which no later member takes.
type Group struct {
	SchemaID int64
	// WindowMs is how far an MG record's rows reach past its key: the
	// sampling interval of the member at the lowest stored slot (1 when
	// that is not positive), so it never shrinks under written records.
	// The writer spans rows over it, the walker looks back by it and
	// maintenance ages records by it.
	WindowMs int64
	// Members maps slot to stored source, nil at a hole. New members are
	// appended, so a table handed out is never written: it is shared.
	Members []*model.DataSource
	Live    int // the members that are not holes
}

// Member returns the stored source at slot: nil at a hole or past the
// table, where a row belongs to no source.
func (g Group) Member(slot int) *model.DataSource {
	if slot < 0 || slot >= len(g.Members) {
		return nil
	}
	return g.Members[slot]
}

// CorruptStatsError reports a statistics entry that does not decode. ID is
// the entry's key: a source id, or a negated MG group id. It unwraps to
// pagestore.ErrCorrupt.
type CorruptStatsError struct{ ID int64 }

func (e *CorruptStatsError) Error() string {
	return fmt.Sprintf("catalog: corrupt statistics entry %d (open in recovery mode, then upgrade to re-derive it)", e.ID)
}

// Unwrap ties the error to the corruption sentinel for errors.Is.
func (e *CorruptStatsError) Unwrap() error { return pagestore.ErrCorrupt }

// CorruptRecordError reports a schema, source or virtual-table record that
// does not load: it does not decode, or it is an MG source whose stored
// slot is out of range or held by another source. Tree and Key name the
// record. It unwraps to pagestore.ErrCorrupt.
type CorruptRecordError struct {
	Tree, Key, Reason string
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("catalog: %s record %s: %s (open in recovery mode to skip it)", e.Tree, e.Key, e.Reason)
}

// Unwrap ties the error to the corruption sentinel for errors.Is.
func (e *CorruptRecordError) Unwrap() error { return pagestore.ErrCorrupt }

// Open loads (or initializes) the catalog inside store. A statistics entry
// that does not decode fails it with a CorruptStatsError: scans eliminate
// sources and bound their lookback by those statistics. Any other record
// that does not load fails it with a CorruptRecordError.
func Open(store *pagestore.Store, groupSize int) (*Catalog, error) {
	return open(store, groupSize, false)
}

// OpenLenient is Open for recovery: an undecodable statistics entry is
// kept as Unknown, which makes scans of its source trust nothing, and any
// other record that does not load is skipped (Skipped names it); a skipped
// MG member's slot stays a hole.
func OpenLenient(store *pagestore.Store, groupSize int) (*Catalog, error) {
	return open(store, groupSize, true)
}

func open(store *pagestore.Store, groupSize int, lenient bool) (*Catalog, error) {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	c := &Catalog{
		groupSize:     min(groupSize, maxGroupSlots),
		bySchemaName:  make(map[string]*model.SchemaType),
		bySchemaID:    make(map[int64]*model.SchemaType),
		srcCache:      make(map[int64]*model.DataSource),
		statsMem:      make(map[int64]model.SourceStats),
		groups:        make(map[int64]*Group),
		vtableCache:   make(map[string]int64),
		schemaAgg:     make(map[int64]model.SourceStats),
		schemaSources: make(map[int64][]int64),
		schemaOwn:     make(map[int64][]*model.DataSource),
		schemaGroups:  make(map[int64][]int64),
	}
	var err error
	if c.schemas, err = btree.Open(store, "cat.schemas"); err != nil {
		return nil, err
	}
	if c.sources, err = btree.Open(store, "cat.sources"); err != nil {
		return nil, err
	}
	if c.stats, err = btree.Open(store, "cat.stats"); err != nil {
		return nil, err
	}
	if c.vtables, err = btree.Open(store, "cat.vtables"); err != nil {
		return nil, err
	}
	if c.counters, err = btree.Open(store, "cat.counters"); err != nil {
		return nil, err
	}
	if err := c.load(lenient); err != nil {
		return nil, err
	}
	return c, nil
}

// formatKey names the blob-format marker's entry in the counters tree.
var formatKey = keyenc.AppendString(nil, "blob-format")

// FormatMarked reports whether the store is marked as holding only batch
// records of ValueBlob format v. The catalog only persists the marker; the
// format is the batch store's. An unmarked store and one marked with an
// older format are not marked; a marker naming a newer format, or none
// that reads, is an error.
func (c *Catalog) FormatMarked(v uint64) (bool, error) {
	got, err := c.counters.Get(formatKey)
	if err == btree.ErrNotFound {
		return false, nil
	}
	if err == nil && (len(got) != 8 || binary.LittleEndian.Uint64(got) > v) {
		err = fmt.Errorf("catalog: the store is marked with ValueBlob format %x, this build reads format %d", got, v)
	}
	return err == nil && binary.LittleEndian.Uint64(got) == v, err
}

// MarkFormat marks the store as holding only batch records of ValueBlob
// format v; the marker is durable at the next checkpoint.
func (c *Catalog) MarkFormat(v uint64) error {
	return c.counters.Put(formatKey, binary.LittleEndian.AppendUint64(nil, v))
}

// load rebuilds the in-memory caches from the persistent trees. A record
// that does not load fails a strict load and is skipped by a lenient one.
func (c *Catalog) load(lenient bool) error {
	for _, t := range []struct {
		tree *btree.Tree
		load func(k, v []byte) string // why the record does not load; "" when it did
	}{{c.schemas, c.loadSchema}, {c.sources, c.loadSource}, {c.vtables, c.loadVTable}} {
		var bad error
		err := t.tree.Scan(nil, nil, func(k, v []byte) bool {
			why := t.load(k, v)
			if why == "" {
				return true
			}
			key := fmt.Sprintf("%x", k)
			if name, _, err := keyenc.String(k); err == nil && t.tree == c.vtables {
				key = strconv.Quote(name)
			} else if id, _, err := keyenc.Int64(k); err == nil && t.tree != c.vtables {
				key = strconv.FormatInt(id, 10)
			}
			e := &CorruptRecordError{Tree: t.tree.Name(), Key: key, Reason: why}
			if !lenient {
				bad = e
				return false
			}
			c.skipped = append(c.skipped, e)
			return true
		})
		if err = cmp.Or(err, bad); err != nil {
			return err
		}
	}
	var corrupt error
	err := c.stats.Scan(nil, nil, func(k, v []byte) bool {
		id, _, err := keyenc.Int64(k)
		if err != nil {
			return true
		}
		st, err := decodeStats(v)
		if err != nil {
			if !lenient {
				corrupt = &CorruptStatsError{ID: id}
				return false
			}
			st = model.SourceStats{Unknown: true}
		}
		c.statsMem[id] = st
		c.mergeAgg(id, st)
		return true
	})
	return cmp.Or(err, corrupt)
}

// loadSchema, loadSource and loadVTable load one record of their tree and
// return why it does not load, or "" when it did.
func (c *Catalog) loadSchema(_, v []byte) string {
	var s model.SchemaType
	if json.Unmarshal(v, &s) != nil {
		return "does not decode"
	}
	c.bySchemaID[s.ID], c.bySchemaName[s.Name] = &s, &s
	return ""
}

func (c *Catalog) loadSource(_, v []byte) string {
	ds, err := decodeSource(v)
	switch {
	case err != nil:
		return "does not decode"
	case ds.IngestStructure() != model.MG:
	case ds.GroupSlot < 0 || ds.GroupSlot >= maxGroupSlots:
		return fmt.Sprintf("MG slot %d is out of range", ds.GroupSlot)
	default:
		if g := c.groups[ds.Group]; g != nil && ds.GroupSlot < len(g.Members) && g.Members[ds.GroupSlot] != nil {
			return fmt.Sprintf("slot %d of MG group %d is held by source %d", ds.GroupSlot, ds.Group, g.Members[ds.GroupSlot].ID)
		}
	}
	c.srcCache[ds.ID] = ds
	c.indexSource(ds)
	return ""
}

func (c *Catalog) loadVTable(k, v []byte) string {
	name, _, err := keyenc.String(k)
	if err != nil || len(v) != 8 {
		return "does not decode"
	}
	c.vtableCache[name] = int64(binary.LittleEndian.Uint64(v))
	return ""
}

// Skipped returns the records a lenient open left out: fsck names them.
func (c *Catalog) Skipped() []*CorruptRecordError { return c.skipped }

// mergeAgg folds delta into the aggregate of the schema that the stats key
// (source id, or negated group id) belongs to. Caller holds c.mu.
func (c *Catalog) mergeAgg(key int64, delta model.SourceStats) {
	var schemaID int64
	if g := c.groups[-key]; g != nil {
		schemaID = g.SchemaID // group ids are positive: key < 0
	} else if ds := c.srcCache[key]; ds != nil {
		schemaID = ds.SchemaID
	} else {
		return
	}
	agg := c.schemaAgg[schemaID]
	agg.Merge(delta)
	c.schemaAgg[schemaID] = agg
}

// nextID allocates a monotonically increasing id for the named counter.
// Caller holds c.mu for writing.
func (c *Catalog) nextID(name string) (int64, error) {
	key := keyenc.AppendString(nil, name)
	var next int64 = 1
	if v, err := c.counters.Get(key); err == nil {
		next = int64(binary.LittleEndian.Uint64(v)) + 1
	} else if err != btree.ErrNotFound {
		return 0, err
	}
	if err := c.counters.Put(key, binary.LittleEndian.AppendUint64(nil, uint64(next))); err != nil {
		return 0, err
	}
	return next, nil
}

// CreateSchemaType registers a schema type with default id/timestamp
// column names and returns it.
func (c *Catalog) CreateSchemaType(name string, tags []model.TagDef) (*model.SchemaType, error) {
	return c.CreateSchema(model.SchemaType{Name: name, Tags: tags})
}

// CreateSchema registers a fully specified schema type (custom id and
// timestamp column names included). The ID field is assigned by the
// catalog.
func (c *Catalog) CreateSchema(st model.SchemaType) (*model.SchemaType, error) {
	if st.Name == "" {
		return nil, fmt.Errorf("catalog: empty schema type name")
	}
	if len(st.Tags) == 0 {
		return nil, fmt.Errorf("catalog: schema type %q has no tags", st.Name)
	}
	seen := map[string]bool{st.IDColumn(): true, st.TSColumn(): true}
	for _, t := range st.Tags {
		if t.Name == "" || seen[t.Name] {
			return nil, fmt.Errorf("catalog: schema type %q: empty, duplicate, or reserved tag %q", st.Name, t.Name)
		}
		seen[t.Name] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bySchemaName[st.Name]; ok {
		return nil, fmt.Errorf("catalog: schema type %q already exists", st.Name)
	}
	id, err := c.nextID("schema")
	if err != nil {
		return nil, err
	}
	st.ID = id
	s := &st
	buf, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	if err := c.schemas.Put(keyenc.AppendInt64(nil, id), buf); err != nil {
		return nil, err
	}
	c.bySchemaID[id] = s
	c.bySchemaName[st.Name] = s
	return s, nil
}

// SchemaByName looks up a schema type by name.
func (c *Catalog) SchemaByName(name string) (*model.SchemaType, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.bySchemaName[name]
	return s, ok
}

// SchemaByID looks up a schema type by id.
func (c *Catalog) SchemaByID(id int64) (*model.SchemaType, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.bySchemaID[id]
	return s, ok
}

// Schemas returns all schema types.
func (c *Catalog) Schemas() []*model.SchemaType {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*model.SchemaType, 0, len(c.bySchemaID))
	for _, s := range c.bySchemaID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RegisterSource adds a data source. Low-frequency sources are assigned to
// an MG group (filling groups up to the configured group size). The stored
// source (with group assignment) is returned.
func (c *Catalog) RegisterSource(ds model.DataSource) (*model.DataSource, error) {
	out, err := c.RegisterSources([]model.DataSource{ds})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// RegisterSources batch-registers sources, amortizing the persistent
// writes. This is the path the paper's "massive amount of sensors"
// scenarios use (millions of smart meters register at provisioning time).
func (c *Catalog) RegisterSources(list []model.DataSource) ([]*model.DataSource, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*model.DataSource, 0, len(list))
	for _, ds := range list {
		if _, ok := c.bySchemaID[ds.SchemaID]; !ok {
			return nil, fmt.Errorf("catalog: source %d: unknown schema %d", ds.ID, ds.SchemaID)
		}
		if ds.ID == 0 {
			id, err := c.nextID("source")
			if err != nil {
				return nil, err
			}
			ds.ID = id
		}
		if _, dup := c.srcCache[ds.ID]; dup {
			return nil, fmt.Errorf("catalog: source %d already registered", ds.ID)
		}
		ds.Group, ds.GroupSlot = 0, 0
		if ds.IngestStructure() == model.MG {
			var err error
			if ds.Group, ds.GroupSlot, err = c.groupFor(ds.SchemaID); err != nil {
				return nil, err
			}
		}
		// The source joins its group, and a new group its schema, only
		// once the record is stored: a failed Put leaves no member behind.
		stored := ds
		if err := c.sources.Put(keyenc.AppendInt64(nil, ds.ID), encodeSource(&stored)); err != nil {
			return nil, err
		}
		c.srcCache[stored.ID] = &stored
		c.indexSource(&stored)
		out = append(out, &stored)
	}
	return out, nil
}

// indexSource files a stored source under its schema, keeping the schema's
// lists in ascending id order, and an MG member in its group's table at its
// stored slot. A group joins its schema's list with its first stored
// member, and takes its window from its lowest stored slot. Caller holds
// c.mu for writing.
func (c *Catalog) indexSource(ds *model.DataSource) {
	insertID(c.schemaSources, ds.SchemaID, ds.ID)
	if ds.IngestStructure() != model.MG {
		own := c.schemaOwn[ds.SchemaID]
		i, _ := slices.BinarySearchFunc(own, ds.ID, func(o *model.DataSource, id int64) int { return cmp.Compare(o.ID, id) })
		c.schemaOwn[ds.SchemaID] = slices.Insert(own, i, ds)
		return
	}
	g := c.groups[ds.Group]
	if g == nil {
		g = &Group{SchemaID: ds.SchemaID}
		c.groups[ds.Group] = g
		insertID(c.schemaGroups, ds.SchemaID, ds.Group)
	}
	if n := ds.GroupSlot + 1; n > len(g.Members) {
		g.Members = append(g.Members, make([]*model.DataSource, n-len(g.Members))...)
	}
	g.Members[ds.GroupSlot] = ds
	g.Live++
	if slices.IndexFunc(g.Members, func(m *model.DataSource) bool { return m != nil }) == ds.GroupSlot {
		g.WindowMs = max(ds.IntervalMs, 1)
	}
}

// insertID files id in the ascending list m[key].
func insertID(m map[int64][]int64, key, id int64) {
	ids := m[key]
	i, _ := slices.BinarySearch(ids, id)
	m[key] = slices.Insert(ids, i, id)
}

// groupFor returns the MG group and slot a schema's next member takes: the
// next unused slot of the schema's newest group while it has room — past
// every stored slot, holes included — else slot 0 of a new group. It
// changes no table, so a registration that fails after it leaves nothing
// behind (a new group's id is spent either way). Caller holds c.mu for
// writing.
func (c *Catalog) groupFor(schemaID int64) (int64, int, error) {
	if groups := c.schemaGroups[schemaID]; len(groups) > 0 {
		g := groups[len(groups)-1]
		if n := len(c.groups[g].Members); n < c.groupSize {
			return g, n, nil
		}
	}
	g, err := c.nextID("group")
	return g, 0, err
}

// Source looks up a data source.
func (c *Catalog) Source(id int64) (*model.DataSource, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.srcCache[id]
	return ds, ok
}

// Lookup is one entry of a batch lookup (Resolve): a source id in, the
// source, its schema and its ingest structure out.
type Lookup struct {
	ID        int64
	Source    *model.DataSource // nil: no source has ID
	Schema    *model.SchemaType // nil: the source's schema is missing
	Structure model.Structure   // Source.IngestStructure(), when Source is set
}

// Resolve looks up each entry's source, that source's ingest structure and
// its schema, in order, under one read lock — an ingest frame's
// validation, which would otherwise take the lock twice per point, and its
// routing, which then reads the structure from the entry while the source
// is still at hand here. It stops at the first entry that does not resolve
// in full and returns its index, or len(ls) when every entry resolved.
func (c *Catalog) Resolve(ls []Lookup) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := range ls {
		l := &ls[i]
		l.Source, l.Schema = c.srcCache[l.ID], nil
		if l.Source == nil {
			return i
		}
		l.Structure = l.Source.IngestStructure()
		if l.Schema = c.bySchemaID[l.Source.SchemaID]; l.Schema == nil {
			return i
		}
	}
	return len(ls)
}

// SourcesBySchema returns the ids of every source of a schema type, in
// ascending order (a copy the caller owns).
func (c *Catalog) SourcesBySchema(schemaID int64) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.schemaSources[schemaID])
}

// OwnRecordSources returns the sources of a schema type that ingest into
// records of their own (RTS/IRTS; MG members share their group's), in
// ascending id order (a copy the caller owns).
func (c *Catalog) OwnRecordSources(schemaID int64) []*model.DataSource {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.schemaOwn[schemaID])
}

// SourceCount returns the number of sources registered for a schema.
func (c *Catalog) SourceCount(schemaID int64) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(len(c.schemaSources[schemaID]))
}

// Group returns an MG group with its member table shared (see Group); the
// zero Group when no stored source is a member of one with this id.
func (c *Catalog) Group(id int64) Group {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if g := c.groups[id]; g != nil {
		return *g
	}
	return Group{}
}

// GroupsBySchema returns the ids of a schema type's MG groups, in
// ascending order (a copy the caller owns).
func (c *Catalog) GroupsBySchema(schemaID int64) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.schemaGroups[schemaID])
}

// CreateVirtualTable exposes a schema type under a table name for SQL.
func (c *Catalog) CreateVirtualTable(name string, schemaID int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.bySchemaID[schemaID]; !ok {
		return fmt.Errorf("catalog: unknown schema %d", schemaID)
	}
	if _, dup := c.vtableCache[name]; dup {
		return fmt.Errorf("catalog: virtual table %q already exists", name)
	}
	if err := c.vtables.Put(keyenc.AppendString(nil, name),
		binary.LittleEndian.AppendUint64(nil, uint64(schemaID))); err != nil {
		return err
	}
	c.vtableCache[name] = schemaID
	return nil
}

// VirtualTable resolves a virtual table name to its schema type.
func (c *Catalog) VirtualTable(name string) (*model.SchemaType, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.vtableCache[name]
	if !ok {
		return nil, false
	}
	s, ok := c.bySchemaID[id]
	return s, ok
}

// VirtualTables returns the registered virtual table names.
func (c *Catalog) VirtualTables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.vtableCache))
	for name := range c.vtableCache {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns the persisted statistics for a source (zero value when the
// source has no persisted batches yet): a memory read.
func (c *Catalog) Stats(source int64) model.SourceStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.statsMem[source]
}

// GroupStats returns the persisted statistics of an MG group. They are
// stored under the negated group id so groups and sources share one tree
// without colliding. Per-member statistics are not maintained on the MG
// path — one MG record carries up to groupSize sources, and the
// reorganizer establishes per-source stats when it converts MG data to
// RTS/IRTS.
func (c *Catalog) GroupStats(group int64) model.SourceStats { return c.Stats(-group) }

// UpdateStats merges delta into a source's persisted statistics and the
// schema-level aggregate used by the cost model.
func (c *Catalog) UpdateStats(source int64, delta model.SourceStats) error {
	return c.mergeStats(source, delta)
}

// UpdateGroupStats is UpdateStats for an MG group.
func (c *Catalog) UpdateGroupStats(group int64, delta model.SourceStats) error {
	return c.mergeStats(-group, delta)
}

func (c *Catalog) mergeStats(key int64, delta model.SourceStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.statsMem[key]
	st.Merge(delta)
	return c.putStats(key, st, delta)
}

// SetStats replaces a source's statistics with ones re-derived from its
// records — exact counts, tight span bounds, no longer Unknown — and
// reports whether that changed them.
func (c *Catalog) SetStats(source int64, st model.SourceStats) (bool, error) {
	return c.setStats(source, st)
}

// SetGroupStats is SetStats for an MG group.
func (c *Catalog) SetGroupStats(group int64, st model.SourceStats) (bool, error) {
	return c.setStats(-group, st)
}

func (c *Catalog) setStats(key int64, st model.SourceStats) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.statsMem[key]
	if old == st {
		return false, nil
	}
	// The aggregate's counts move by the difference; its bounds only widen.
	delta := st
	delta.BatchCount -= old.BatchCount
	delta.PointCount -= old.PointCount
	delta.BlobBytes -= old.BlobBytes
	return true, c.putStats(key, st, delta)
}

// putStats writes an entry through: the tree, then the memory copy and
// the schema aggregate. Caller holds c.mu.
func (c *Catalog) putStats(key int64, st, delta model.SourceStats) error {
	if err := c.stats.Put(keyenc.AppendInt64(nil, key), encodeStats(st)); err != nil {
		return err
	}
	c.statsMem[key] = st
	c.mergeAgg(key, delta)
	return nil
}

// SchemaStats returns the aggregate statistics of all sources of a schema,
// the primary input to the planner's ValueBlob-bytes cost model.
func (c *Catalog) SchemaStats(schemaID int64) model.SourceStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.schemaAgg[schemaID]
}

// --- binary codecs ---

func encodeSource(ds *model.DataSource) []byte {
	b := binary.AppendVarint(nil, ds.ID)
	b = binary.AppendVarint(b, ds.SchemaID)
	if ds.Regular {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, ds.IntervalMs)
	b = binary.AppendVarint(b, ds.Group)
	b = binary.AppendVarint(b, int64(ds.GroupSlot))
	b = binary.AppendUvarint(b, uint64(len(ds.Name)))
	return append(b, ds.Name...)
}

func decodeSource(b []byte) (*model.DataSource, error) {
	var ds model.DataSource
	var slot int64
	ok := varints(&b, &ds.ID, &ds.SchemaID) && len(b) > 0
	if ok {
		ds.Regular, b = b[0] == 1, b[1:]
		ok = varints(&b, &ds.IntervalMs, &ds.Group, &slot)
	}
	nameLen, n := binary.Uvarint(b)
	if !ok || n <= 0 || uint64(len(b[n:])) < nameLen {
		return nil, fmt.Errorf("catalog: corrupt source record")
	}
	ds.GroupSlot, ds.Name = int(slot), string(b[n:n+int(nameLen)])
	return &ds, nil
}

// varints decodes varints off the front of *b into dsts, in order, and
// reports whether all of them decoded.
func varints(b *[]byte, dsts ...*int64) bool {
	for _, dst := range dsts {
		v, n := binary.Varint(*b)
		if n <= 0 {
			return false
		}
		*dst, *b = v, (*b)[n:]
	}
	return true
}

// A stats record is six varints, then (since the per-tier span bounds) a
// flag byte and the HotSpanMs and ColdLastTS varints. A six-varint record
// decodes to the bounds its writer trusted: every record as wide as the
// widest, non-hot records anywhere.
const (
	statsHasCold = 1 << iota
	statsUnknown
)

func encodeStats(st model.SourceStats) []byte {
	b := binary.AppendVarint(nil, st.BatchCount)
	b = binary.AppendVarint(b, st.PointCount)
	b = binary.AppendVarint(b, st.BlobBytes)
	b = binary.AppendVarint(b, st.FirstTS)
	b = binary.AppendVarint(b, st.LastTS)
	b = binary.AppendVarint(b, st.MaxSpanMs)
	var flags byte
	if st.HasCold {
		flags |= statsHasCold
	}
	if st.Unknown {
		flags |= statsUnknown
	}
	b = binary.AppendVarint(append(b, flags), st.HotSpanMs)
	return binary.AppendVarint(b, st.ColdLastTS)
}

func decodeStats(b []byte) (model.SourceStats, error) {
	var st model.SourceStats
	ok := varints(&b, &st.BatchCount, &st.PointCount, &st.BlobBytes, &st.FirstTS, &st.LastTS, &st.MaxSpanMs)
	if ok && len(b) > 0 {
		st.HasCold, st.Unknown = b[0]&statsHasCold != 0, b[0]&statsUnknown != 0
		b = b[1:]
		ok = varints(&b, &st.HotSpanMs, &st.ColdLastTS)
	} else {
		st.HotSpanMs, st.HasCold, st.ColdLastTS = st.MaxSpanMs, true, math.MaxInt64
	}
	if !ok {
		return st, fmt.Errorf("catalog: corrupt stats record")
	}
	return st, nil
}
