package iotx

import (
	"fmt"
	"time"

	"odh/internal/catalog"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/relational"
	"odh/internal/sqlexec"
	"odh/internal/tsstore"
)

// jdbcBatchSize is the executeBatch granularity the paper grants the
// relational candidates ("the simulator calls the executeBatch function
// for every 1000 operational records").
const jdbcBatchSize = 1000

// System is one benchmark candidate: ODH (batch stores + virtual tables)
// or a relational product profile (operational data in plain tables with
// B-tree indexes). Both expose the same SQL surface so WS2 runs identical
// query text against each.
type System struct {
	Name  string
	IsODH bool

	page   *pagestore.Store
	cat    *catalog.Catalog
	ts     *tsstore.Store
	rel    *relational.DB
	engine *sqlexec.Engine

	// Relational candidates buffer operational inserts here to emulate
	// the JDBC batch path.
	opTable *relational.Table
	pending [][]relational.Value

	// Query-parameter metadata captured at load time.
	Params QueryParams
}

// QueryParams holds the value pools WS2 draws template parameters from.
type QueryParams struct {
	// TD side.
	Accounts  int
	DOBLo     int64
	DOBHi     int64
	TDStartTS int64
	TDEndTS   int64
	// LD side.
	SensorIDs []int64
	LDStartTS int64
	LDEndTS   int64
	LatLo     float64
	LatHi     float64
	LonLo     float64
	LonHi     float64
}

// SystemConfig tunes a candidate's storage stack.
type SystemConfig struct {
	BatchSize          int // ODH batch size b
	GroupSize          int // ODH MG group capacity
	PoolPages          int
	DisableCompression bool // ODH compression ablation
}

func (c SystemConfig) withDefaults() SystemConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.GroupSize <= 0 {
		c.GroupSize = c.BatchSize
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 16384
	}
	return c
}

// NewODH builds the ODH candidate.
func NewODH(cfg SystemConfig) (*System, error) {
	return newSystem("ODH", true, relational.ProfileRDB, cfg)
}

// NewRDB builds the commercial-relational-database candidate.
func NewRDB(cfg SystemConfig) (*System, error) {
	return newSystem("RDB", false, relational.ProfileRDB, cfg)
}

// NewMySQL builds the MySQL candidate.
func NewMySQL(cfg SystemConfig) (*System, error) {
	return newSystem("MySQL", false, relational.ProfileMySQL, cfg)
}

func newSystem(name string, isODH bool, profile relational.Profile, cfg SystemConfig) (*System, error) {
	cfg = cfg.withDefaults()
	page, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: cfg.PoolPages})
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Open(page, cfg.GroupSize)
	if err != nil {
		return nil, err
	}
	ts, err := tsstore.Open(page, cat, tsstore.Config{
		BatchSize:          cfg.BatchSize,
		DisableCompression: cfg.DisableCompression,
	})
	if err != nil {
		return nil, err
	}
	rel, err := relational.Open(page, profile)
	if err != nil {
		return nil, err
	}
	return &System{
		Name:   name,
		IsODH:  isODH,
		page:   page,
		cat:    cat,
		ts:     ts,
		rel:    rel,
		engine: sqlexec.New(rel, ts),
	}, nil
}

// Close releases the candidate's storage.
func (s *System) Close() error {
	if err := s.FlushOperational(); err != nil {
		return err
	}
	return s.page.Close()
}

// Engine exposes the SQL engine for WS2.
func (s *System) Engine() *sqlexec.Engine { return s.engine }

// exec runs a statement and fails loudly (setup-time DDL).
func (s *System) exec(sql string) error {
	_, err := s.engine.Query(sql)
	if err != nil {
		return fmt.Errorf("%s: %q: %w", s.Name, sql, err)
	}
	return nil
}

// SetupTD prepares the candidate for a TD dataset: for ODH, the trade
// schema type, virtual table, and registered account sources; for the
// relational candidates, a TRADE table with the paper's two B-tree
// indexes. Both get the ACCOUNT and CUSTOMER dimension tables.
func (s *System) SetupTD(gen *TDGen) error {
	cfg := gen.Config()
	if s.IsODH {
		schema, err := s.cat.CreateSchema(TDSchema())
		if err != nil {
			return err
		}
		if err := s.cat.CreateVirtualTable("TRADE", schema.ID); err != nil {
			return err
		}
		intervalMs := max(1, int64(1000/cfg.FreqHz()))
		batch := make([]model.DataSource, cfg.Accounts())
		for i := range batch {
			batch[i] = model.DataSource{
				ID: int64(i + 1), SchemaID: schema.ID,
				Regular: false, IntervalMs: intervalMs,
			}
		}
		if _, err := s.cat.RegisterSources(batch); err != nil {
			return err
		}
	} else {
		if err := s.exec(`CREATE TABLE TRADE (T_DTS TIMESTAMP, T_CA_ID BIGINT, T_TRADE_PRICE DOUBLE, T_CHRG DOUBLE, T_COMM DOUBLE, T_TAX DOUBLE)`); err != nil {
			return err
		}
		// "B-tree indices are created on T_DTS and T_CA_ID."
		if err := s.exec(`CREATE INDEX trade_by_dts ON TRADE (T_DTS)`); err != nil {
			return err
		}
		if err := s.exec(`CREATE INDEX trade_by_ca ON TRADE (T_CA_ID)`); err != nil {
			return err
		}
		t, _ := s.rel.Table("TRADE")
		s.opTable = t
	}
	if err := s.exec(`CREATE TABLE ACCOUNT (CA_ID BIGINT, CA_C_ID BIGINT, CA_NAME VARCHAR(32), CA_BAL DOUBLE)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX acct_by_id ON ACCOUNT (CA_ID)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX acct_by_name ON ACCOUNT (CA_NAME)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE TABLE CUSTOMER (C_ID BIGINT, C_L_NAME VARCHAR(32), C_F_NAME VARCHAR(32), C_TIER INT, C_DOB TIMESTAMP)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX cust_by_id ON CUSTOMER (C_ID)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX cust_by_dob ON CUSTOMER (C_DOB)`); err != nil {
		return err
	}
	acct, _ := s.rel.Table("ACCOUNT")
	var acctRows [][]relational.Value
	for _, a := range gen.Accounts() {
		acctRows = append(acctRows, []relational.Value{
			relational.Int(a.CAID), relational.Int(a.CCID),
			relational.Str(a.Name), relational.Float(a.Bal),
		})
	}
	if err := acct.InsertBatch(acctRows); err != nil {
		return err
	}
	cust, _ := s.rel.Table("CUSTOMER")
	var custRows [][]relational.Value
	dobLo, dobHi := int64(1<<62), int64(-1<<62)
	for _, c := range gen.Customers() {
		custRows = append(custRows, []relational.Value{
			relational.Int(c.CID), relational.Str(c.LName), relational.Str(c.FName),
			relational.Int(c.Tier), relational.Time(c.DOB),
		})
		dobLo, dobHi = min(dobLo, c.DOB), max(dobHi, c.DOB)
	}
	if err := cust.InsertBatch(custRows); err != nil {
		return err
	}
	s.Params.Accounts = cfg.Accounts()
	s.Params.DOBLo, s.Params.DOBHi = dobLo, dobHi
	s.Params.TDStartTS = cfg.StartTS
	s.Params.TDEndTS = cfg.StartTS + cfg.Duration.Milliseconds()
	return nil
}

// SetupCustom registers an arbitrary schema type with its sources and
// virtual table on an ODH candidate — the §4 case studies (WAMS PMUs,
// smart meters, connected vehicles) use their own schemas.
func (s *System) SetupCustom(schema model.SchemaType, vtable string, sources []model.DataSource) error {
	if !s.IsODH {
		return fmt.Errorf("iotx: SetupCustom is ODH-only")
	}
	st, err := s.cat.CreateSchema(schema)
	if err != nil {
		return err
	}
	if vtable != "" {
		if err := s.cat.CreateVirtualTable(vtable, st.ID); err != nil {
			return err
		}
	}
	for i := range sources {
		sources[i].SchemaID = st.ID
	}
	_, err = s.cat.RegisterSources(sources)
	return err
}

// SetupLD prepares the candidate for an LD dataset: the sparse
// Observation schema (ODH: MG-grouped low-frequency sources; relational:
// a wide table with B-tree indexes on Timestamp and SensorId) plus the
// LinkedSensor dimension table.
func (s *System) SetupLD(gen *LDGen, maxDev float64) error {
	cfg := gen.Config()
	if s.IsODH {
		schema, err := s.cat.CreateSchema(LDSchema(cfg.TagCount, maxDev))
		if err != nil {
			return err
		}
		if err := s.cat.CreateVirtualTable("Observation", schema.ID); err != nil {
			return err
		}
		batch := make([]model.DataSource, 0, cfg.Sensors())
		for _, id := range gen.SensorIDs() {
			batch = append(batch, model.DataSource{
				ID: id, SchemaID: schema.ID,
				Regular: false, IntervalMs: cfg.MeanIntervalMs,
			})
		}
		if _, err := s.cat.RegisterSources(batch); err != nil {
			return err
		}
	} else {
		ddl := `CREATE TABLE Observation (Timestamp TIMESTAMP, SensorId BIGINT`
		for i := 0; i < cfg.TagCount; i++ {
			ddl += fmt.Sprintf(", %s DOUBLE", LDTagNames[i])
		}
		ddl += ")"
		if err := s.exec(ddl); err != nil {
			return err
		}
		if err := s.exec(`CREATE INDEX obs_by_ts ON Observation (Timestamp)`); err != nil {
			return err
		}
		if err := s.exec(`CREATE INDEX obs_by_sensor ON Observation (SensorId)`); err != nil {
			return err
		}
		t, _ := s.rel.Table("Observation")
		s.opTable = t
	}
	if err := s.exec(`CREATE TABLE LinkedSensor (SensorId BIGINT, SensorName VARCHAR(16), Latitude DOUBLE, Longitude DOUBLE)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX sensor_by_id ON LinkedSensor (SensorId)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX sensor_by_name ON LinkedSensor (SensorName)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX sensor_by_lat ON LinkedSensor (Latitude)`); err != nil {
		return err
	}
	if err := s.exec(`CREATE INDEX sensor_by_lon ON LinkedSensor (Longitude)`); err != nil {
		return err
	}
	ls, _ := s.rel.Table("LinkedSensor")
	var rows [][]relational.Value
	latLo, latHi := 90.0, -90.0
	lonLo, lonHi := 180.0, -180.0
	for _, sr := range gen.Sensors() {
		rows = append(rows, []relational.Value{
			relational.Int(sr.SensorID), relational.Str(sr.Name),
			relational.Float(sr.Lat), relational.Float(sr.Lon),
		})
		latLo, latHi = min(latLo, sr.Lat), max(latHi, sr.Lat)
		lonLo, lonHi = min(lonLo, sr.Lon), max(lonHi, sr.Lon)
	}
	if err := ls.InsertBatch(rows); err != nil {
		return err
	}
	s.Params.SensorIDs = gen.SensorIDs()
	s.Params.LDStartTS = cfg.StartTS
	s.Params.LDEndTS = cfg.StartTS + cfg.Duration.Milliseconds()
	s.Params.LatLo, s.Params.LatHi = latLo, latHi
	s.Params.LonLo, s.Params.LonHi = lonLo, lonHi
	return nil
}

// InsertOperational ingests one operational record through the
// candidate's write path: the ODH writer API, or the JDBC-style batch
// insert for the relational candidates.
func (s *System) InsertOperational(p model.Point) error {
	if s.IsODH {
		return s.ts.Write(p)
	}
	row := make([]relational.Value, 2+len(p.Values))
	row[0] = relational.Time(p.TS)
	row[1] = relational.Int(p.Source)
	for i, v := range p.Values {
		if model.IsNull(v) {
			row[2+i] = relational.Null
		} else {
			row[2+i] = relational.Float(v)
		}
	}
	s.pending = append(s.pending, row)
	if len(s.pending) >= jdbcBatchSize {
		return s.flushPending()
	}
	return nil
}

func (s *System) flushPending() error {
	if len(s.pending) == 0 {
		return nil
	}
	err := s.opTable.InsertBatch(s.pending)
	s.pending = s.pending[:0]
	return err
}

// FlushOperational drains write buffers on either path and commits the
// candidate's pages: the store's checkpoint, which on a relational
// candidate has no ingest buffer to drain first.
func (s *System) FlushOperational() error {
	if err := s.flushPending(); err != nil {
		return err
	}
	return s.ts.Flush()
}

// StorageBytes returns the candidate's total storage footprint after a
// flush (page store size, the paper's "actual storage size").
func (s *System) StorageBytes() (int64, error) {
	if err := s.FlushOperational(); err != nil {
		return 0, err
	}
	return s.page.SizeBytes(), nil
}

// IOStats returns cumulative page-level I/O counters.
func (s *System) IOStats() pagestore.Stats { return s.page.Stats() }

// BlobBytes returns the persisted ValueBlob payload (ODH candidates);
// metadata and page slack excluded.
func (s *System) BlobBytes() int64 { return int64(s.ts.BlobBytesTotal()) }

// simulatedDuration computes the dataset time covered by points written
// so far (for CPU-at-real-time-rate accounting).
func simulatedDuration(startTS, lastTS int64) time.Duration {
	if lastTS <= startTS {
		return 0
	}
	return time.Duration(lastTS-startTS) * time.Millisecond
}
