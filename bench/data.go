package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"odh"
	"odh/internal/iotx"
)

// scale holds every size the workloads are built from. canonical() is
// the committed configuration; toy() is the smoke-test size.
type scale struct {
	IngestAccounts int     // ingest_td sources (TD accounts)
	IngestHz       float64 // their simulated trade rate
	FrameTD        int     // points per TD BATCH frame

	QueryAccounts int     // preloaded TD store: sources
	QueryPoints   int     // preloaded TD store: points
	QueryHz       float64 // simulated trade rate of the preloaded store

	Sensors      int           // mixed_ld sources (LD stations)
	LDIntervalMs int64         // simulated mean sampling interval
	LDPreload    int           // points loaded before the window
	LDFrame      int           // points per LD BATCH frame
	LDFrameEvery time.Duration // open-loop schedule: one frame per tick

	// A run sets up at least Setups times, and goes on up to MaxSetups
	// while the set-ups so far took less than setupBudget together, so a
	// set-up of a few milliseconds still reports a steady median.
	Setups, MaxSetups int
	LadderSample      int // recorded inputs per template the ladder replays
}

func canonicalScale() scale {
	return scale{
		IngestAccounts: 2000, IngestHz: 20, FrameTD: 1000,
		QueryAccounts: 250, QueryPoints: 1_000_000, QueryHz: 2,
		Sensors: 5000, LDIntervalMs: 23_000, LDPreload: 400_000,
		LDFrame: 150, LDFrameEvery: 5 * time.Millisecond,
		Setups: 3, MaxSetups: 25, LadderSample: 200,
	}
}

func toyScale() scale {
	return scale{
		IngestAccounts: 200, IngestHz: 20, FrameTD: 200,
		QueryAccounts: 20, QueryPoints: 40_000, QueryHz: 2,
		Sensors: 300, LDIntervalMs: 23_000, LDPreload: 8_000,
		LDFrame: 20, LDFrameEvery: 5 * time.Millisecond,
		Setups: 1, MaxSetups: 1, LadderSample: 8,
	}
}

// forever outlasts any run: the generators are cut off by the window,
// not by their own duration.
const forever = 10_000 * time.Hour

func tdConfig(accounts int, hz float64, seed int64) iotx.TDConfig {
	return iotx.TDConfig{I: 1, J: 1, AccountUnit: accounts, FreqUnitHz: hz, Duration: forever, Seed: seed}
}

func ldConfig(sc scale, seed int64) iotx.LDConfig {
	return iotx.LDConfig{I: 1, SensorUnit: sc.Sensors, MeanIntervalMs: sc.LDIntervalMs, Duration: forever, Seed: seed}
}

// registerTD creates the trade schema, its virtual table and one IRTS
// source per account id in [1, accounts].
func registerTD(h *odh.Historian, accounts int, hz float64) error {
	st, err := h.CreateSchema(iotx.TDSchema())
	if err != nil {
		return err
	}
	if err := h.CreateVirtualTable("TRADE", st.Name); err != nil {
		return err
	}
	srcs := make([]odh.DataSource, accounts)
	for i := range srcs {
		srcs[i] = odh.DataSource{ID: int64(i + 1), SchemaID: st.ID, IntervalMs: int64(1000 / hz)}
	}
	_, err = h.RegisterSources(srcs)
	return err
}

// execAll runs set-up statements, failing on the first error.
func execAll(h *odh.Historian, stmts ...string) error {
	for _, s := range stmts {
		if _, err := h.Query(s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

// insertRows loads dimension rows through multi-row INSERT statements.
func insertRows(h *odh.Historian, table string, rows []string) error {
	const perStmt = 200
	for len(rows) > 0 {
		n := min(perStmt, len(rows))
		if err := execAll(h, "INSERT INTO "+table+" VALUES "+strings.Join(rows[:n], ", ")); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// loadTDDimensions creates and fills ACCOUNT and CUSTOMER like
// iotx.System.SetupTD does, through SQL (the public surface).
func loadTDDimensions(h *odh.Historian, gen *iotx.TDGen) error {
	if err := execAll(h,
		`CREATE TABLE ACCOUNT (CA_ID BIGINT, CA_C_ID BIGINT, CA_NAME VARCHAR(32), CA_BAL DOUBLE)`,
		`CREATE INDEX acct_by_id ON ACCOUNT (CA_ID)`,
		`CREATE INDEX acct_by_name ON ACCOUNT (CA_NAME)`,
		`CREATE TABLE CUSTOMER (C_ID BIGINT, C_L_NAME VARCHAR(32), C_F_NAME VARCHAR(32), C_TIER INT, C_DOB TIMESTAMP)`,
		`CREATE INDEX cust_by_id ON CUSTOMER (C_ID)`,
		`CREATE INDEX cust_by_dob ON CUSTOMER (C_DOB)`,
	); err != nil {
		return err
	}
	var rows []string
	for _, a := range gen.Accounts() {
		rows = append(rows, fmt.Sprintf("(%d, %d, '%s', %g)", a.CAID, a.CCID, a.Name, a.Bal))
	}
	if err := insertRows(h, "ACCOUNT", rows); err != nil {
		return err
	}
	rows = rows[:0]
	for _, c := range gen.Customers() {
		rows = append(rows, fmt.Sprintf("(%d, '%s', '%s', %d, %d)", c.CID, c.LName, c.FName, c.Tier, c.DOB))
	}
	return insertRows(h, "CUSTOMER", rows)
}

// pipeline generates batches on one goroutine and writes them on the
// caller's, so set-up uses both cores. next fills the batch; it returns
// false when the stream is done.
func pipeline(h *odh.Historian, frame int, next func() (odh.Point, bool), total int) error {
	// Two batches in flight: one being written, one being generated.
	batches := make(chan []odh.Point, 1)
	go func() {
		defer close(batches)
		for done := 0; done < total; {
			b := make([]odh.Point, 0, frame)
			for len(b) < frame && done < total {
				p, ok := next()
				if !ok {
					return
				}
				b = append(b, p)
				done++
			}
			batches <- b
		}
	}()
	w := h.Writer()
	var err error
	for b := range batches {
		if err == nil {
			err = w.WriteBatchParallel(b)
		}
	}
	return err
}

// setupStore is the set-up child's work: everything a workload needs on
// disk before warm-up. It is what setup_s times.
func setupStore(workload, dir string, opts odh.Options, seed int64, sc scale) error {
	h, err := odh.Open(dir, opts)
	if err != nil {
		return err
	}
	// A flush recycles the recovery log, so its size is added up first:
	// the log's bytes are part of what set-up wrote.
	var rep setupReport
	flush := func() error {
		rep.BytesWritten += walSize(dir)
		return h.Flush()
	}
	switch workload {
	case "ingest_td":
		if err = registerTD(h, sc.IngestAccounts, sc.IngestHz); err == nil {
			err = loadTDDimensions(h, iotx.NewTDGen(tdConfig(sc.IngestAccounts, sc.IngestHz, seed)))
		}
	case "query_raw", "query_agg":
		rep.Points = int64(sc.QueryPoints)
		err = setupQueryStore(h, dir, seed, sc, flush)
	case "mixed_ld":
		rep.Points = int64(sc.LDPreload)
		err = setupLDStore(h, seed, sc)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err == nil {
		err = flush()
	}
	if err != nil {
		h.Close()
		return err
	}
	rep.BytesWritten += h.TotalStats().IOBytesWritten
	if err := h.Close(); err != nil {
		return err
	}
	return rep.write(dir)
}

// setupQueryStore preloads the TD store both query workloads read: all
// points through the writer API, then one cold-compaction pass over the
// oldest half, then a flush. The generated (source, ts) pairs go to
// oracle.bin so the serving process knows what every query must return.
func setupQueryStore(h *odh.Historian, dir string, seed int64, sc scale, flush func() error) error {
	gen := iotx.NewTDGen(tdConfig(sc.QueryAccounts, sc.QueryHz, seed))
	if err := registerTD(h, sc.QueryAccounts, sc.QueryHz); err != nil {
		return err
	}
	if err := loadTDDimensions(h, gen); err != nil {
		return err
	}
	oracle := make([]byte, 0, 8+12*sc.QueryPoints)
	oracle = binary.LittleEndian.AppendUint64(oracle, uint64(sc.QueryPoints))
	var first, last int64
	next := func() (odh.Point, bool) {
		p, ok := gen.Next()
		if first == 0 {
			first = p.TS
		}
		last = p.TS
		oracle = binary.LittleEndian.AppendUint64(oracle, uint64(p.TS))
		oracle = binary.LittleEndian.AppendUint32(oracle, uint32(p.Source))
		return p, ok
	}
	if err := pipeline(h, sc.FrameTD, next, sc.QueryPoints); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if _, err := h.TierSchema("trade", odh.TierPolicy{ColdAfterMs: (last - first) / 2}, last); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "oracle.bin"), oracle, 0o644)
}

// mixed_ld has two fleets of the same LD shape in one store: the
// archive fleet (schema observation, table Observation), preloaded and
// read by the dashboards, and the live fleet, which the gateway writes
// during the run. Both are MG sources, so reads and writes share the MG
// tree, the shards, the pool and the caches; they touch disjoint groups
// because at this commit a scan of a group that is being written is not
// exact (README, "What mixed_ld found").
const (
	liveSchemaName = "observation_live"
	liveTable      = "ObservationLive"
)

// liveIDOffset is added to a generated sensor id to address the live
// fleet's twin of that sensor.
func liveIDOffset(sc scale) int64 { return int64(sc.Sensors) }

// setupLDStore registers both fleets, fills LinkedSensor and preloads
// the first LDPreload points of the seeded LD stream into the archive.
func setupLDStore(h *odh.Historian, seed int64, sc scale) error {
	gen := iotx.NewLDGen(ldConfig(sc, seed))
	live := iotx.LDSchema(0, 0)
	live.Name = liveSchemaName
	for _, fleet := range []struct {
		schema odh.SchemaType
		table  string
		offset int64
	}{{iotx.LDSchema(0, 0), "Observation", 0}, {live, liveTable, liveIDOffset(sc)}} {
		st, err := h.CreateSchema(fleet.schema)
		if err != nil {
			return err
		}
		if err := h.CreateVirtualTable(fleet.table, st.Name); err != nil {
			return err
		}
		srcs := make([]odh.DataSource, 0, sc.Sensors)
		for _, id := range gen.SensorIDs() {
			srcs = append(srcs, odh.DataSource{ID: id + fleet.offset, SchemaID: st.ID, IntervalMs: sc.LDIntervalMs})
		}
		if _, err := h.RegisterSources(srcs); err != nil {
			return err
		}
	}
	if err := execAll(h,
		`CREATE TABLE LinkedSensor (SensorId BIGINT, SensorName VARCHAR(16), Latitude DOUBLE, Longitude DOUBLE)`,
		`CREATE INDEX sensor_by_id ON LinkedSensor (SensorId)`,
		`CREATE INDEX sensor_by_name ON LinkedSensor (SensorName)`,
	); err != nil {
		return err
	}
	var rows []string
	for _, s := range gen.Sensors() {
		rows = append(rows, fmt.Sprintf("(%d, '%s', %g, %g)", s.SensorID, s.Name, s.Lat, s.Lon))
	}
	if err := insertRows(h, "LinkedSensor", rows); err != nil {
		return err
	}
	return pipeline(h, sc.LDFrame, gen.Next, sc.LDPreload)
}

// tdTruth is what the generator loaded into the query store.
type tdTruth struct {
	ts          []int64   // every point's timestamp, ascending
	per         [][]int64 // per account id: its timestamps, ascending
	first, last int64
	// custAccounts lists each customer's account ids; custDOB its date
	// of birth (the fusedN template selects customers by DOB).
	custAccounts [][]int64
	custDOB      []int64
}

func loadTDTruth(dir string, seed int64, sc scale) (*tdTruth, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "oracle.bin"))
	if err != nil {
		return nil, err
	}
	if len(raw) < 8 || len(raw) != 8+12*int(binary.LittleEndian.Uint64(raw)) {
		return nil, fmt.Errorf("oracle.bin: %d bytes do not match the declared count", len(raw))
	}
	n := int(binary.LittleEndian.Uint64(raw))
	t := &tdTruth{ts: make([]int64, n), per: make([][]int64, sc.QueryAccounts+1)}
	for i := 0; i < n; i++ {
		rec := raw[8+12*i:]
		ts, src := int64(binary.LittleEndian.Uint64(rec)), binary.LittleEndian.Uint32(rec[8:])
		if int(src) >= len(t.per) {
			return nil, fmt.Errorf("oracle.bin: source %d outside 1..%d", src, sc.QueryAccounts)
		}
		t.ts[i] = ts
		t.per[src] = append(t.per[src], ts)
	}
	t.first, t.last = t.ts[0], t.ts[n-1]
	gen := iotx.NewTDGen(tdConfig(sc.QueryAccounts, sc.QueryHz, seed))
	for _, c := range gen.Customers() {
		t.custDOB = append(t.custDOB, c.DOB)
	}
	t.custAccounts = make([][]int64, len(t.custDOB))
	for _, a := range gen.Accounts() {
		t.custAccounts[a.CCID-1] = append(t.custAccounts[a.CCID-1], a.CAID)
	}
	return t, nil
}

// countIn returns how many of the ascending ts lie in [t1, t2].
func countIn(ts []int64, t1, t2 int64) int { return len(window(ts, t1, t2)) }

// ldTruth is what the set-up loaded into the archive fleet's table.
type ldTruth struct {
	ts     []int64 // every point's timestamp, ascending
	per    []int   // per sensor ordinal: its point count
	baseID int64   // sensor id of ordinal s is baseID + s + 1
}

// loadLDTruth regenerates the archive's preloaded stream from the seed.
func loadLDTruth(seed int64, sc scale) (*ldTruth, error) {
	gen := iotx.NewLDGen(ldConfig(sc, seed))
	t := &ldTruth{ts: make([]int64, sc.LDPreload), per: make([]int, sc.Sensors), baseID: gen.SensorIDs()[0] - 1}
	for i := range t.ts {
		p, _ := gen.Next()
		if i > 0 && p.TS < t.ts[i-1] {
			return nil, fmt.Errorf("LD stream is not in timestamp order at point %d", i)
		}
		t.ts[i] = p.TS
		t.per[p.Source-t.baseID-1]++
	}
	return t, nil
}
