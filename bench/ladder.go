package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"odh"
	"odh/internal/btree"
	"odh/internal/catalog"
	"odh/internal/compress"
	"odh/internal/iotx"
	"odh/internal/keyenc"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/relational"
	"odh/internal/server"
	"odh/internal/sqlexec"
	"odh/internal/sqlparse"
	"odh/internal/tsstore"
	"odh/internal/walog"
)

// The layer ladder: after the window, a recorded sample of the window's
// own requests is replayed at successively lower exported entry points
// against a stack built like the served one, each call inside a span. A
// layer's self time is its rung minus the rung below.
//
// replayBudget bounds one pass over the query sample: the chronological
// prefix of the traced requests whose wire time adds up to this much is
// replayed, so the mix (and with it the cache behaviour) stays the
// window's. The issue's 200 requests per template do not fit the
// contract's run-time cap on the slow templates.
const replayBudget = 1500 * time.Millisecond

// microSample bounds the records the btree, blob and page probes touch.
const microSample = 512

type ladder struct {
	cfg   runConfig
	base  time.Time // span clock origin: the window's start
	spans *[]span
	m     metricSet
}

// timed runs f inside a span and returns its duration.
func (l *ladder) timed(id int64, name, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	*l.spans = append(*l.spans, span{TraceID: id, Name: name, Parent: parent,
		StartNs: start.Sub(l.base).Nanoseconds(), EndNs: end.Sub(l.base).Nanoseconds()})
	return end.Sub(start)
}

func runLadder(cfg runConfig, dir string, base time.Time, st *connStats, m metricSet) error {
	l := &ladder{cfg: cfg, base: base, spans: &st.spans, m: m}
	sort.Slice(st.samples, func(i, j int) bool { return st.samples[i].traceID < st.samples[j].traceID })
	var frames, queries []sampled
	for _, s := range st.samples {
		if s.payload != nil {
			frames = append(frames, s)
		} else {
			queries = append(queries, s)
		}
	}
	if len(frames) > 0 {
		if err := l.writeRungs(frames); err != nil {
			return fmt.Errorf("write rungs: %w", err)
		}
	}
	stack, err := openStack(filepath.Join(dir, "odh.pages"), cfg.opts)
	if err != nil {
		return err
	}
	if len(queries) > 0 {
		if err := l.readRungs(stack, queries); err != nil {
			stack.page.Close()
			return fmt.Errorf("read rungs: %w", err)
		}
	}
	if err := l.treeProbes(stack); err != nil {
		stack.page.Close()
		return fmt.Errorf("tree probes: %w", err)
	}
	if err := stack.page.Close(); err != nil {
		return err
	}
	if err := l.pageProbes(filepath.Join(dir, "odh.pages")); err != nil {
		return fmt.Errorf("page probes: %w", err)
	}
	return l.compressProbes()
}

// stack is the historian's layers assembled by hand, the way odh.Open
// and internal/iotx/sut.go assemble them, so the rungs below the public
// API have something to call.
type stack struct {
	page   *pagestore.Store
	cat    *catalog.Catalog
	ts     *tsstore.Store
	engine *sqlexec.Engine
}

// openStack opens the layers over an existing page file with the run's
// options. The recovery log is left out: the write rung below the
// historian measures the store without it.
func openStack(pageFile string, opts odh.Options) (*stack, error) {
	f, err := pagestore.OpenOSFile(pageFile)
	if err != nil {
		return nil, err
	}
	page, err := pagestore.Open(f, pagestore.Options{PoolPages: opts.PoolPages})
	if err != nil {
		return nil, err
	}
	s, err := assemble(page, opts)
	if err != nil {
		page.Close()
	}
	return s, err
}

func assemble(page *pagestore.Store, opts odh.Options) (*stack, error) {
	cat, err := catalog.Open(page, opts.BatchSize)
	if err != nil {
		return nil, err
	}
	ts, err := tsstore.Open(page, cat, tsstore.Config{
		BatchSize: opts.BatchSize, BlobCacheBytes: opts.BlobCacheBytes, SubBucketMs: opts.SubBucketMs,
	})
	if err != nil {
		return nil, err
	}
	rel, err := relational.Open(page, relational.ProfileRDB)
	if err != nil {
		return nil, err
	}
	engine := sqlexec.New(rel, ts)
	engine.SetQueryWorkers(opts.QueryWorkers)
	return &stack{page: page, cat: cat, ts: ts, engine: engine}, nil
}

// writeRungs replays the sampled frames: frame decode, the historian's
// writer on a fresh store, the batch store without a log, and the log
// alone.
func (l *ladder) writeRungs(frames []sampled) error {
	cfg := l.cfg
	var points int
	var wire, decode, odhWrite, tsWrite, walAppend time.Duration
	batches := make([][]odh.Point, len(frames))
	for i, f := range frames {
		var err error
		decode += l.timed(f.traceID, "server.DecodeBatchFrame", "wire.batch", func() {
			batches[i], err = server.DecodeBatchFrame(f.payload)
		})
		if err != nil {
			return err
		}
		points += len(batches[i])
		wire += f.wire
	}

	// Two fresh stores built by the workload's own set-up.
	fresh := func(name string) (string, error) {
		dir := filepath.Join(cfg.out, fmt.Sprintf("ladder-%d-%s", os.Getpid(), name))
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
		return dir, setupStore(cfg.workload, dir, cfg.opts, cfg.seed, cfg.sc)
	}
	odhDir, err := fresh("odh")
	defer os.RemoveAll(odhDir)
	if err != nil {
		return err
	}
	h, err := odh.Open(odhDir, cfg.opts)
	if err != nil {
		return err
	}
	w := h.Writer()
	for i, f := range frames {
		odhWrite += l.timed(f.traceID, "odh.WriteBatchParallel", "wire.batch", func() { err = w.WriteBatchParallel(batches[i]) })
		if err != nil {
			h.Close()
			return err
		}
	}
	if err := h.Close(); err != nil {
		return err
	}

	tsDir, err := fresh("ts")
	defer os.RemoveAll(tsDir)
	if err != nil {
		return err
	}
	st, err := openStack(filepath.Join(tsDir, "odh.pages"), cfg.opts)
	if err != nil {
		return err
	}
	for i, f := range frames {
		tsWrite += l.timed(f.traceID, "tsstore.WriteBatchParallel", "odh.WriteBatchParallel", func() {
			err = st.ts.WriteBatchParallel(batches[i], cfg.nproc)
		})
		if err != nil {
			st.page.Close()
			return err
		}
	}
	if err := st.ts.Flush(); err != nil {
		st.page.Close()
		return err
	}
	var flushErr error
	pageFlush := l.timed(0, "pagestore.Flush", "", func() { flushErr = st.page.Flush() })
	if err := st.page.Close(); flushErr != nil || err != nil {
		return fmt.Errorf("flush %v, close %v", flushErr, err)
	}

	log, err := walog.OpenPath(filepath.Join(tsDir, "ladder.wal"), walog.Options{})
	if err != nil {
		return err
	}
	for i, f := range frames {
		recs := make([][]byte, len(batches[i]))
		for k, p := range batches[i] {
			recs[k] = tsstore.EncodePointWAL(p)
		}
		walAppend += l.timed(f.traceID, "walog.AppendBatch", "odh.WriteBatchParallel", func() { err = log.AppendBatch(recs) })
		if err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}

	n, note := float64(points), fmt.Sprintf("%d frames, %d points", len(frames), points)
	perPoint := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	l.m.set("server.frame_decode_ns_per_point", perPoint(decode), note)
	l.m.set("odh.write_ns_per_point", perPoint(odhWrite), note)
	l.m.set("tsstore.write_ns_per_point", perPoint(tsWrite), note+"; WriteBatchParallel like the rung above, not WriteBatch")
	l.m.set("walog.append_ns_per_point", perPoint(walAppend), note)
	l.m.set("server.wire_self_ms_per_batch", (wire-odhWrite).Seconds()*1e3/float64(len(frames)), note)
	l.m.set("pagestore.flush_ms", pageFlush.Seconds()*1e3, "")
	return nil
}

var planEstimate = regexp.MustCompile(`(?:est-decoded=|plan=\S+ cost=)(\d+)`)

// drain pulls every row of a result and returns the row count.
func drain(res *sqlexec.Result) (int64, error) {
	for {
		_, ok, err := res.Next()
		if err != nil || !ok {
			return res.RowCount, err
		}
	}
}

// readRungs replays the sampled queries through the SQL engine, then
// through the batch store's scan or aggregate call for the same range,
// then through the parser and planner alone.
func (l *ladder) readRungs(s *stack, all []sampled) error {
	// The chronological prefix that fits the budget.
	var spent time.Duration
	queries := all[:0:0]
	for _, q := range all {
		if spent += q.wire; spent > replayBudget && len(queries) >= len(templateNames) {
			break
		}
		queries = append(queries, q)
	}
	run := func(sql string) (rows, blobBytes int64, err error) {
		res, err := s.engine.Query(sql)
		if err != nil {
			return 0, 0, err
		}
		rows, err = drain(res)
		return rows, res.BlobBytes(), err
	}
	// Warm pass: caches reach the state a running mix keeps them in.
	for _, q := range queries {
		if _, _, err := run(q.req.sql); err != nil {
			return err
		}
	}

	type perTmpl struct {
		n            int
		wire, engine time.Duration
	}
	by := map[string]*perTmpl{}
	var (
		engineAll, wireAll                          time.Duration
		scanTime, engineOverScan, aggTime, dimTime  time.Duration
		scanRows, decodedBytes, estBytes, estActual int64
		aggCalls, dimCalls                          int
		folded, subFolded, aggDecoded               int64
		parse, plan                                 time.Duration
	)
	for _, q := range queries {
		req := q.req
		var rows, blobBytes int64
		var err error
		engine := l.timed(q.traceID, "sqlexec.Query", "wire."+req.tmpl, func() { rows, blobBytes, err = run(req.sql) })
		if err != nil {
			return err
		}
		t := by[req.tmpl]
		if t == nil {
			t = &perTmpl{}
			by[req.tmpl] = t
		}
		t.n++
		t.wire += q.wire
		t.engine += engine
		engineAll += engine
		wireAll += q.wire
		decodedBytes += blobBytes

		var below time.Duration
		if req.sumCol >= 0 {
			var res *tsstore.AggResult
			below = l.timed(q.traceID, "tsstore.Aggregate", "sqlexec.Query", func() { res, err = l.aggregate(s, req) })
			if err != nil {
				return err
			}
			aggTime += below
			aggCalls++
			folded += res.BytesNotDecoded
			subFolded += res.SubBucketBytesNotDecoded
			aggDecoded += res.BlobBytesRead
		} else {
			var n int64
			below = l.timed(q.traceID, "tsstore.Scan", "sqlexec.Query", func() { n, err = l.scan(s, req) })
			if err != nil {
				return err
			}
			if n != rows {
				return fmt.Errorf("%s: the store scan returned %d rows, the engine %d: %s", req.tmpl, n, rows, req.sql)
			}
			scanTime += below
			scanRows += n
			engineOverScan += engine - below
		}
		if req.dimSQL != "" {
			dimTime += l.timed(q.traceID, "relational.lookup", "sqlexec.Query", func() { _, _, err = run(req.dimSQL) })
			if err != nil {
				return err
			}
			dimCalls++
		}

		var text string
		parse += l.timed(q.traceID, "sqlparse.Parse", "sqlexec.Query", func() { _, err = sqlparse.Parse(req.sql) })
		if err != nil {
			return err
		}
		plan += l.timed(q.traceID, "sqlexec.Plan", "sqlexec.Query", func() { text, err = s.engine.Plan(req.sql) })
		if err != nil {
			return err
		}
		if m := planEstimate.FindStringSubmatch(text); m != nil && blobBytes > 0 {
			est, _ := strconv.ParseInt(m[1], 10, 64)
			estBytes += est
			estActual += blobBytes
		}
	}

	n := float64(len(queries))
	note := fmt.Sprintf("%d of %d sampled queries", len(queries), len(all))
	ms := func(d time.Duration, n float64) float64 { return ratio(d.Seconds()*1e3, n) }
	us := func(d time.Duration, n float64) float64 { return ratio(d.Seconds()*1e6, n) }
	for name, t := range by {
		l.m.set("odh.query_ms."+name, ms(t.engine, float64(t.n)), fmt.Sprintf("n=%d, through sqlexec.Engine (the historian keeps its engine private)", t.n))
	}
	l.m.set("server.wire_self_ms_per_query", ms(wireAll-engineAll, n), note)
	l.m.set("tsstore.decoded_bytes_per_query", float64(decodedBytes)/n, note)
	l.m.set("tsstore.scan_ns_per_row", ratio(float64(scanTime.Nanoseconds()), float64(scanRows)), fmt.Sprintf("%d rows", scanRows))
	l.m.set("sqlexec.exec_self_us_per_row", us(engineOverScan, float64(scanRows)), fmt.Sprintf("%d rows", scanRows))
	l.m.set("tsstore.agg_us_per_call", us(aggTime, float64(aggCalls)), fmt.Sprintf("%d calls", aggCalls))
	swept := float64(folded + subFolded + aggDecoded)
	l.m.set("tsstore.summary_fold_share", ratio(float64(folded), swept), fmt.Sprintf("%.0f bytes swept", swept))
	l.m.set("tsstore.subbucket_fold_share", ratio(float64(subFolded), swept), "")
	l.m.set("relational.lookup_us", us(dimTime, float64(dimCalls)), fmt.Sprintf("%d lookups, through the engine", dimCalls))
	l.m.set("sqlparse.parse_us", us(parse, n), note)
	l.m.set("sqlexec.plan_us", us(plan-parse, n), note)
	l.m.set("sqlexec.est_error_ratio", ratio(float64(estBytes), float64(estActual)), fmt.Sprintf("over %d actual bytes; fused and aggregate plans only print an estimate", estActual))
	return nil
}

// tagsFor returns the schema a request reads and the tag its SQL
// projects or aggregates (nil = all).
func (l *ladder) tagsFor(s *stack, req request) (*model.SchemaType, []int, error) {
	name, tag := "trade", "T_TRADE_PRICE"
	if l.cfg.workload == "mixed_ld" {
		name, tag = "observation", "AirTemperature"
	}
	schema, ok := s.cat.SchemaByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("schema %q is missing", name)
	}
	switch req.tmpl {
	case "hist", "slice", "LQ1":
		return schema, nil, nil // SELECT *
	case "fused1", "fusedN":
		tag = "T_CHRG"
	}
	return schema, []int{schema.TagIndex(tag)}, nil
}

// scan is the batch-store call under a row-returning template.
func (l *ladder) scan(s *stack, req request) (int64, error) {
	schema, tags, err := l.tagsFor(s, req)
	if err != nil {
		return 0, err
	}
	parallel := tsstore.ScanOptions{Workers: l.cfg.opts.QueryWorkers}
	var it tsstore.Iterator
	switch {
	case len(req.ids) == 0:
		it, err = s.ts.SliceScanOpts(schema.ID, req.t1, req.t2+1, tags, parallel)
	case len(req.ids) == 1:
		it, err = s.ts.HistoricalScan(req.ids[0], req.t1, req.t2+1, tags)
	default:
		it, err = s.ts.MultiHistoricalScanOpts(req.ids, req.t1, req.t2+1, tags, parallel)
	}
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		if _, ok := it.Next(); !ok {
			return n, it.Err()
		}
		n++
	}
}

// aggregate is the batch-store call under an aggregate template.
func (l *ladder) aggregate(s *stack, req request) (*tsstore.AggResult, error) {
	schema, tags, err := l.tagsFor(s, req)
	if err != nil {
		return nil, err
	}
	spec := tsstore.AggSpec{T1: req.t1, T2: req.t2 + 1, NTags: len(schema.Tags), WantTags: tags,
		BucketMs: req.bucketMs, ByID: req.byID, Opts: tsstore.ScanOptions{Workers: l.cfg.opts.QueryWorkers}}
	if len(req.ids) == 1 {
		return s.ts.AggregateHistorical(req.ids[0], spec)
	}
	return s.ts.AggregateSlice(schema.ID, spec)
}

// treeProbes measures the B-tree and the blob codec on the store's own
// records: the fullest batch tree's keys and ValueBlobs.
func (l *ladder) treeProbes(s *stack) error {
	var tree *btree.Tree
	for _, name := range []string{"ts.rts", "ts.irts", "ts.mg"} {
		t, err := btree.Open(s.page, name)
		if err != nil {
			return err
		}
		if tree == nil || t.Count() > tree.Count() {
			tree = t
		}
	}
	if tree.Count() == 0 {
		return nil
	}
	l.m.set("btree.height", float64(tree.Height()), tree.Name())
	l.m.set("btree.value_bytes_per_record", float64(tree.ValueBytes())/float64(tree.Count()), fmt.Sprintf("%d records", tree.Count()))

	// Walk the tree once, keeping an evenly spread sample of records.
	type record struct{ key, val []byte }
	var sample []record
	stride := int(tree.Count())/microSample + 1
	var walkErr error
	walked := 0
	walk := l.timed(0, "btree.cursor", "", func() {
		for c := tree.First(); c.Valid(); c.Next() {
			val, err := c.Value()
			if err != nil {
				walkErr = err
				return
			}
			if walked%stride == 0 {
				sample = append(sample, record{append([]byte(nil), c.Key()...), append([]byte(nil), val...)})
			}
			if walked++; walked >= 50*microSample {
				break
			}
		}
	})
	if walkErr != nil {
		return walkErr
	}
	l.m.set("btree.seek_next_ns_per_record", float64(walk.Nanoseconds())/float64(walked), fmt.Sprintf("%d records", walked))

	rand.New(rand.NewSource(l.cfg.seed)).Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	var getErr error
	get := l.timed(0, "btree.Get", "", func() {
		for _, r := range sample {
			if _, err := tree.Get(r.key); err != nil {
				getErr = err
			}
		}
	})
	if getErr != nil {
		return getErr
	}
	l.m.set("btree.get_ns", float64(get.Nanoseconds())/float64(len(sample)), fmt.Sprintf("%d keys", len(sample)))

	mem, err := pagestore.Open(pagestore.NewMemFile(), pagestore.Options{PoolPages: l.cfg.opts.PoolPages})
	if err != nil {
		return err
	}
	defer mem.Close()
	scratch, err := btree.Open(mem, "ladder")
	if err != nil {
		return err
	}
	var putErr error
	put := l.timed(0, "btree.Put", "", func() {
		for _, r := range sample {
			if err := scratch.Put(r.key, r.val); err != nil {
				putErr = err
			}
		}
	})
	if putErr != nil {
		return putErr
	}
	l.m.set("btree.put_ns", float64(put.Nanoseconds())/float64(len(sample)), fmt.Sprintf("%d records into an empty tree", len(sample)))

	var hotPoints, coldPoints, blobBytes int
	var hot, cold time.Duration
	for _, r := range sample {
		_, baseTS, err := keyenc.DecodeSourceTime(r.key)
		if err != nil {
			return err
		}
		var batch *tsstore.DecodedBatch
		start := time.Now()
		batch, err = tsstore.DecodeBlob(r.val, baseTS, nil)
		d := time.Since(start)
		if err != nil {
			return err
		}
		blobBytes += len(r.val)
		if tsstore.BlobTier(r.val) == tsstore.TierHot {
			hot, hotPoints = hot+d, hotPoints+len(batch.Timestamps)
		} else {
			cold, coldPoints = cold+d, coldPoints+len(batch.Timestamps)
		}
	}
	l.m.set("tsstore.points_per_blob", float64(hotPoints+coldPoints)/float64(len(sample)), fmt.Sprintf("%d records", len(sample)))
	l.m.set("tsstore.decode_ns_per_point.hot", ratio(float64(hot.Nanoseconds()), float64(hotPoints)), fmt.Sprintf("%d points", hotPoints))
	l.m.set("tsstore.decode_ns_per_point.cold", ratio(float64(cold.Nanoseconds()), float64(coldPoints)), fmt.Sprintf("%d points", coldPoints))
	return nil
}

// pageProbes times a buffer-pool hit and a miss on the store's page
// file, the miss through a pool of eight frames that cannot keep a page.
func (l *ladder) pageProbes(pageFile string) error {
	f, err := pagestore.OpenOSFile(pageFile)
	if err != nil {
		return err
	}
	page, err := pagestore.Open(f, pagestore.Options{PoolPages: 8, PoolPartitions: 1})
	if err != nil {
		return err
	}
	defer page.Close()
	pages := int(page.NumPages())
	if pages < 32 {
		return nil
	}
	n := min(pages-1, 4*microSample)
	var getErr error
	get := func(id pagestore.PageID) {
		fr, err := page.Get(id)
		if err != nil {
			getErr = err
			return
		}
		fr.Unpin()
	}
	miss := l.timed(0, "pagestore.Get.miss", "", func() {
		for i := 0; i < n; i++ {
			get(pagestore.PageID(1 + i))
		}
	})
	hit := l.timed(0, "pagestore.Get.hit", "", func() {
		for i := 0; i < n; i++ {
			get(pagestore.PageID(n))
		}
	})
	if getErr != nil {
		return getErr
	}
	l.m.set("pagestore.get_miss_ns", float64(miss.Nanoseconds())/float64(n), fmt.Sprintf("%d pages, served by the OS page cache", n))
	l.m.set("pagestore.get_hit_ns", float64(hit.Nanoseconds())/float64(n), "")
	return nil
}

// compressProbes times the column codecs on columns cut from the seeded
// TD and LD streams: 64 sources, one batch (128 values) per tag each.
func (l *ladder) compressProbes() error {
	const sources, batch = 64, 128
	collect := func(next func() (model.Point, bool), base int64, ntags int) [][]float64 {
		cols := make([][]float64, sources*ntags)
		points := make([]int, sources)
		for full := 0; full < sources; {
			p, _ := next()
			s := int(p.Source - base - 1)
			if points[s] == batch {
				continue
			}
			// A sparse LD tag is stored as a presence map plus the values
			// that exist; only those reach the codec.
			for t, v := range p.Values {
				if !model.IsNull(v) {
					cols[s*ntags+t] = append(cols[s*ntags+t], v)
				}
			}
			if points[s]++; points[s] == batch {
				full++
			}
		}
		return cols
	}
	td := iotx.NewTDGen(tdConfig(sources, l.cfg.sc.IngestHz, l.cfg.seed))
	ldCfg := ldConfig(l.cfg.sc, l.cfg.seed)
	ldCfg.SensorUnit = sources
	ld := iotx.NewLDGen(ldCfg)
	tdCols := collect(td.Next, 0, len(iotx.TDTagNames))
	ldCols := collect(ld.Next, ld.SensorIDs()[0]-1, len(iotx.LDTagNames))

	var codecErr error
	probe := func(cols [][]float64, encode func(dst []byte, v []float64) []byte) (encNs, decNs, bytesPer float64) {
		var values, bytes int
		var enc, dec time.Duration
		for _, col := range cols {
			if len(col) == 0 {
				continue
			}
			start := time.Now()
			b := encode(nil, col)
			enc += time.Since(start)
			start = time.Now()
			out, err := compress.DecodeColumn(b)
			dec += time.Since(start)
			if err != nil || len(out) != len(col) {
				codecErr = fmt.Errorf("column codec round trip: %d of %d values, %v", len(out), len(col), err)
			}
			values += len(col)
			bytes += len(b)
		}
		n := float64(values)
		return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, float64(bytes) / n
	}
	lossless := func(dst []byte, v []float64) []byte { return compress.EncodeColumn(dst, v, compress.Policy{}) }
	for _, ds := range []struct {
		name string
		cols [][]float64
	}{{"td", tdCols}, {"ld", ldCols}} {
		enc, dec, per := probe(ds.cols, lossless)
		l.m.set("compress.encode_ns_per_value."+ds.name, enc, "")
		l.m.set("compress.decode_ns_per_value."+ds.name, dec, "")
		l.m.set("compress.bytes_per_value."+ds.name, per, "")
	}
	enc, _, _ := probe(tdCols, compress.EncodeColumnMaxEffort)
	l.m.set("compress.maxeffort_encode_ns_per_value", enc, "")
	return codecErr
}

// writeTrace writes the run's spans to out/trace-<workload>.json.
func writeTrace(cfg runConfig, spans []span) error {
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, "nanoseconds since the window opened", spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), raw, 0o644)
}
