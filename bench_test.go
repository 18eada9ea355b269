package odh

// One benchmark per table and figure of the paper's evaluation (§4 and
// §5). Each benchmark runs its experiment once per b.N iteration at a
// reduced scale and reports the paper's headline metric through
// b.ReportMetric, so `go test -bench . -benchmem` regenerates every
// artifact. The iotx CLI (cmd/iotx) prints the full tables; these benches
// are the reproducible entry point EXPERIMENTS.md records.

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"odh/internal/iotx"
)

// benchScale keeps the full bench suite within minutes.
func benchScale() iotx.Scale {
	return iotx.Scale{
		TDAccountUnit:    10,
		TDFreqUnitHz:     4,
		TDDuration:       10 * time.Second,
		LDSensorUnit:     150,
		LDMeanIntervalMs: 23_000,
		LDDuration:       8 * time.Minute,
		CaseStudyDivisor: 200,
		QueriesPerTpl:    10,
		BatchSize:        64,
		Seed:             1,
	}
}

// BenchmarkTable2WAMS regenerates Table 2: CPU load of the WAMS PMU
// settings at real-time arrival rate (RTS ingest path).
func BenchmarkTable2WAMS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := iotx.RunTable2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].AvgCPU*100, "maxsetting-cpu-%")
		b.ReportMetric(rows[len(rows)-1].AvgInsert, "insert-pts/s")
	}
}

// BenchmarkTable3Vehicles regenerates Table 3: connected-vehicle fleets
// through the MG ingest path.
func BenchmarkTable3Vehicles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := iotx.RunTable3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.AvgInsert, "insert-pts/s")
		b.ReportMetric(last.AvgIOBytesSec, "io-B/s")
	}
}

// BenchmarkFigure5TDInsert regenerates Figure 5 on a diagonal subset of
// the TD grid: insert throughput of ODH vs the relational baselines.
func BenchmarkFigure5TDInsert(b *testing.B) {
	pairs := [][2]int{{1, 1}, {2, 2}, {3, 3}, {5, 5}}
	for i := 0; i < b.N; i++ {
		points, err := iotx.RunFigure5(benchScale(), pairs)
		if err != nil {
			b.Fatal(err)
		}
		var odh, rdb float64
		for _, p := range points {
			if p.Dataset == "TD(5,5)" {
				switch p.System {
				case "ODH":
					odh = p.Throughput
				case "RDB":
					rdb = p.Throughput
				}
			}
		}
		b.ReportMetric(odh, "odh-pts/s")
		b.ReportMetric(odh/rdb, "odh/rdb-x")
	}
}

// BenchmarkFigure6LDInsert regenerates Figure 6 on LD(1..4).
func BenchmarkFigure6LDInsert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := iotx.RunFigure6(benchScale(), 4)
		if err != nil {
			b.Fatal(err)
		}
		var odh, rdb float64
		for _, p := range points {
			if p.Dataset == "LD(4)" {
				switch p.System {
				case "ODH":
					odh = p.Throughput
				case "RDB":
					rdb = p.Throughput
				}
			}
		}
		b.ReportMetric(odh, "odh-pts/s")
		b.ReportMetric(odh/rdb, "odh/rdb-x")
	}
}

// BenchmarkTable7Storage regenerates Table 7: storage cost of the
// selected datasets; the headline is the RDB/ODH storage ratio (the paper
// reports ODH smaller by a factor of more than 3).
func BenchmarkTable7Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := iotx.RunTable7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = 1 << 30
		for _, r := range rows {
			ratio := float64(r.Bytes["RDB"]) / float64(r.Bytes["ODH"])
			if ratio < worst {
				worst = ratio
			}
		}
		b.ReportMetric(worst, "min-rdb/odh-x")
	}
}

// BenchmarkTable8Query regenerates Table 8: the eight query templates on
// the three candidates; headline metrics are ODH's TQ3 win ratio and LQ1
// loss ratio (the paper's two poles).
func BenchmarkTable8Query(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := iotx.RunTable8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		perf := map[string]float64{}
		for _, r := range results {
			perf[r.System+"/"+r.Template] = r.DPPerSec
		}
		b.ReportMetric(perf["ODH/TQ3"]/perf["RDB/TQ3"], "tq3-odh/rdb-x")
		b.ReportMetric(perf["ODH/LQ1"]/perf["RDB/LQ1"], "lq1-odh/rdb-x")
	}
}

// BenchmarkFigure7TagWidth regenerates Figure 7: tag count vs write data
// throughput; the headline is the ODH/RDB gap at 1 tag (where the paper
// says the gap is largest).
func BenchmarkFigure7TagWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := iotx.RunFigure7(benchScale(), []int{1, 8, 15})
		if err != nil {
			b.Fatal(err)
		}
		var odh1, rdb1 float64
		for _, p := range points {
			if p.Tags == 1 {
				switch p.System {
				case "ODH":
					odh1 = p.Throughput
				case "RDB":
					rdb1 = p.Throughput
				}
			}
		}
		b.ReportMetric(odh1/rdb1, "1tag-odh/rdb-x")
	}
}

// BenchmarkCompressionLD1 regenerates the §5.3 compression note: linear
// compression with max deviation 0.1 on LD(1) vs the relational baseline.
func BenchmarkCompressionLD1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := iotx.RunCompression(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FactorVsRDB, "rdb/odh-lossy-x")
	}
}

// BenchmarkAblationBatchSize quantifies the I/O-amortization claim behind
// the batch structures: ingest throughput as b varies.
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{1, 8, 64, 512} {
		b.Run(sizeName(batch), func(b *testing.B) {
			scale := benchScale()
			scale.BatchSize = batch
			cfg := scale.TDConfigFor(2, 2)
			for i := 0; i < b.N; i++ {
				sys, err := iotx.NewODH(iotx.SystemConfig{BatchSize: batch})
				if err != nil {
					b.Fatal(err)
				}
				res, err := iotx.RunWS1TD(sys, cfg)
				sys.Close()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgThroughput, "pts/s")
			}
		})
	}
}

// BenchmarkAblationCompression compares the ingest path with and without
// the compression pipeline on per-source IRTS batches (TD), where the
// codecs see temporal locality. (On MG blobs the columns run across group
// members, so lossless codecs gain little there — the MG savings come
// from the data model itself and from lossy policies.)
func BenchmarkAblationCompression(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "compressed"
		if disable {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			scale := benchScale()
			cfg := scale.TDConfigFor(2, 2)
			for i := 0; i < b.N; i++ {
				sys, err := iotx.NewODH(iotx.SystemConfig{BatchSize: scale.BatchSize, DisableCompression: disable})
				if err != nil {
					b.Fatal(err)
				}
				res, err := iotx.RunWS1TD(sys, cfg)
				if err != nil {
					sys.Close()
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgThroughput, "pts/s")
				b.ReportMetric(float64(sys.BlobBytes()), "blob-B")
				sys.Close()
			}
		})
	}
}

// BenchmarkAblationTagLayout compares tag-oriented vs row-oriented blob
// layouts for a single-tag query (the tag-oriented approach's raison
// d'être).
func BenchmarkAblationTagLayout(b *testing.B) {
	for _, rowOriented := range []bool{false, true} {
		name := "tag-oriented"
		if rowOriented {
			name = "row-oriented"
		}
		b.Run(name, func(b *testing.B) {
			scale := benchScale()
			cfg := scale.LDConfigFor(2)
			sys, err := iotx.NewODH(iotx.SystemConfig{BatchSize: scale.BatchSize, RowOrientedBlobs: rowOriented})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if _, err := iotx.RunWS1LD(sys, cfg, 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := iotx.RunWS2Template(sys, "LQ2", 5, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.DPPerSec, "dp/s")
			}
		})
	}
}

// BenchmarkAblationMGvsIRTS compares MG-grouped ingest against forcing
// low-frequency sources through per-source IRTS batches (Table 1's
// rationale: a lone low-frequency source takes too long to fill a batch,
// leaving most data in partially filled blobs).
func BenchmarkAblationMGvsIRTS(b *testing.B) {
	scale := benchScale()
	cfg := scale.LDConfigFor(2)
	run := func(b *testing.B, groupSize int) {
		for i := 0; i < b.N; i++ {
			sys, err := iotx.NewODH(iotx.SystemConfig{BatchSize: scale.BatchSize, GroupSize: groupSize})
			if err != nil {
				b.Fatal(err)
			}
			res, err := iotx.RunWS1LD(sys, cfg, 0)
			sys.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.AvgThroughput, "pts/s")
			b.ReportMetric(float64(res.StorageBytes), "storage-B")
		}
	}
	b.Run("mg-64", func(b *testing.B) { run(b, 64) })
	b.Run("mg-1-(irts-like)", func(b *testing.B) { run(b, 1) })
}

func sizeName(n int) string { return "b" + strconv.Itoa(n) }

// BenchmarkConcurrentIngest measures the sharded write path's scaling
// curve: run with `-cpu 1,4,8` to see points/sec grow with cores. Each
// goroutine streams points to its own RTS source, so all contention is on
// the shard locks, the group-committed WAL-free buffer path, and the
// partitioned page pool — the structures this matters for.
func BenchmarkConcurrentIngest(b *testing.B) {
	const nSources = 256
	h, err := Open("", Options{BatchSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	schema, err := h.CreateSchema(SchemaType{
		Name: "concurrent",
		Tags: []TagDef{{Name: "t0"}, {Name: "t1"}, {Name: "t2"}, {Name: "t3"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]int64, nSources)
	for i := range srcs {
		ds, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = ds.ID
	}
	w := h.Writer()
	var nextGoroutine atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := nextGoroutine.Add(1) - 1
		src := srcs[int(g)%nSources]
		vals := []float64{1.5, 2.5, 3.5, float64(g)}
		ts := int64(0)
		for pb.Next() {
			ts += 10
			if err := w.WritePoint(src, ts, vals...); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "pts/s")
	}
}

// BenchmarkParallelBatchIngest measures Writer.WriteBatchParallel against
// the sequential WriteBatch on the same large mixed-source batch.
func BenchmarkParallelBatchIngest(b *testing.B) {
	const (
		nSources  = 64
		batchPts  = 64_000
		perSource = batchPts / nSources
	)
	run := func(b *testing.B, parallel bool) {
		h, err := Open("", Options{BatchSize: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		schema, err := h.CreateSchema(SchemaType{
			Name: "batchbench",
			Tags: []TagDef{{Name: "t0"}, {Name: "t1"}},
		})
		if err != nil {
			b.Fatal(err)
		}
		srcs := make([]int64, nSources)
		for i := range srcs {
			ds, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
			if err != nil {
				b.Fatal(err)
			}
			srcs[i] = ds.ID
		}
		// Interleave sources the way a gateway-aggregated batch arrives.
		points := make([]Point, 0, batchPts)
		for j := 0; j < perSource; j++ {
			for i := 0; i < nSources; i++ {
				points = append(points, Point{
					Source: srcs[i],
					TS:     int64(j+1) * 10,
					Values: []float64{float64(i), float64(j)},
				})
			}
		}
		w := h.Writer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Shift timestamps so every iteration appends fresh data.
			base := int64(i) * int64(perSource+1) * 10
			for k := range points {
				points[k].TS += base
			}
			if parallel {
				err = w.WriteBatchParallel(points)
			} else {
				err = w.WriteBatch(points)
			}
			if err != nil {
				b.Fatal(err)
			}
			for k := range points {
				points[k].TS -= base
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)*batchPts/secs, "pts/s")
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, false) })
	b.Run("parallel", func(b *testing.B) { run(b, true) })
}

// benchQueryFixture builds a historian with one dense RTS history big
// enough for the optimizer to fan its scans out.
func benchQueryFixture(b *testing.B, opts Options) (*Historian, int64, int64) {
	const nPts = 200_000
	opts.BatchSize = 128
	h, err := Open("", opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { h.Close() })
	schema, err := h.CreateSchema(SchemaType{
		Name: "scan", IDName: "id", TSName: "ts",
		Tags: []TagDef{{Name: "t0"}, {Name: "t1"}, {Name: "t2"}, {Name: "t3"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := h.CreateVirtualTable("V", "scan"); err != nil {
		b.Fatal(err)
	}
	ds, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	if err != nil {
		b.Fatal(err)
	}
	w := h.Writer()
	for i := 0; i < nPts; i++ {
		if err := w.WritePoint(ds.ID, int64(i+1)*10, float64(i%97), float64(i), 3.5, float64(i%11)); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		b.Fatal(err)
	}
	return h, ds.ID, int64(nPts+1) * 10
}

// BenchmarkBlobCache measures repeated scans of the same history with
// the decoded-ValueBlob cache off and on: the cached runs skip the
// pagestore read and the column decode (the paper's dominant
// row-assembly overhead).
func BenchmarkBlobCache(b *testing.B) {
	run := func(b *testing.B, cacheBytes int64) {
		// DisableAggPushdown: the aggregate shape would otherwise fold from
		// summaries and never exercise the cached decode path under
		// measurement.
		h, src, maxTS := benchQueryFixture(b, Options{BlobCacheBytes: cacheBytes, DisableAggPushdown: true})
		q := `SELECT COUNT(*), SUM(t1), MAX(t0) FROM V WHERE id = ` + strconv.FormatInt(src, 10) +
			` AND ts >= 0 AND ts < ` + strconv.FormatInt(maxTS, 10)
		// Warm outside the timed region so the cached runs measure hits.
		res, err := h.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.FetchAll(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := h.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.FetchAll(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := h.TotalStats()
		if lookups := st.BlobCacheHits + st.BlobCacheMisses; lookups > 0 {
			b.ReportMetric(100*float64(st.BlobCacheHits)/float64(lookups), "hit%")
			b.ReportMetric(float64(st.BlobCacheBytesSaved)/float64(max64(int64(b.N), 1)), "savedB/op")
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)*200_000/secs, "rows/s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("on-64MiB", func(b *testing.B) { run(b, 64<<20) })
}

// aggBenchQueries are the pushdown-eligible shapes both aggregate
// benchmarks run: a grand total and a TIME_BUCKET roll-up over a window
// that clips the first and last batch, so roughly 1% of the blobs are
// boundary decodes and the rest fold from header summaries.
func aggBenchQueries(src, maxTS int64) []string {
	lo, hi := int64(15), maxTS-5
	w := func(q string) string {
		return q + ` FROM V WHERE id = ` + strconv.FormatInt(src, 10) +
			` AND ts >= ` + strconv.FormatInt(lo, 10) +
			` AND ts < ` + strconv.FormatInt(hi, 10)
	}
	return []string{
		w(`SELECT COUNT(*), SUM(t1), AVG(t2), MIN(t0), MAX(t0)`),
		w(`SELECT TIME_BUCKET(100000, ts), COUNT(*), MAX(t1)`) + ` GROUP BY TIME_BUCKET(100000, ts)`,
	}
}

// BenchmarkAggPushdown measures the summary path: COUNT/SUM/AVG/MIN/MAX
// and a TIME_BUCKET roll-up folded from per-blob header summaries, with
// only the two window-clipped boundary blobs decoded. decodedB/op is the
// blob payload actually decoded per iteration; foldedB/op is what the
// fallback would have decoded; reduction-x is their ratio (the headline —
// the issue targets >= 5x).
func BenchmarkAggPushdown(b *testing.B) {
	h, src, maxTS := benchQueryFixture(b, Options{})
	queries := aggBenchQueries(src, maxTS)
	var decoded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			res, err := h.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.FetchAll(); err != nil {
				b.Fatal(err)
			}
			decoded += res.BlobBytes()
		}
	}
	b.StopTimer()
	st := h.TotalStats()
	n := max64(int64(b.N), 1)
	b.ReportMetric(float64(decoded)/float64(n), "decodedB/op")
	b.ReportMetric(float64(st.BytesNotDecoded+decoded)/float64(n), "foldedB/op")
	if decoded > 0 {
		b.ReportMetric(float64(st.BytesNotDecoded+decoded)/float64(decoded), "reduction-x")
	}
	b.ReportMetric(float64(st.SummaryHits)/float64(n), "folds/op")
}

// BenchmarkAggDecodeFallback runs the identical queries with the
// pushdown disabled: every blob in the window is read and decoded. The
// wall-clock gap against BenchmarkAggPushdown is the tentpole win.
func BenchmarkAggDecodeFallback(b *testing.B) {
	h, src, maxTS := benchQueryFixture(b, Options{DisableAggPushdown: true})
	queries := aggBenchQueries(src, maxTS)
	var decoded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			res, err := h.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.FetchAll(); err != nil {
				b.Fatal(err)
			}
			decoded += res.BlobBytes()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(decoded)/float64(max64(int64(b.N), 1)), "decodedB/op")
}

// BenchmarkAggSubBucket measures the sub-bucket summary path on the shape
// the whole-blob summary can never answer: TIME_BUCKET widths smaller
// than a blob's span (128 points at 10 ms = 1280 ms) over an unaligned
// window, so every interior blob straddles bucket edges. The sub-1000ms
// run folds the straddlers from per-sub-bucket mini-summaries — only the
// two window-cut blobs decode — while the v2 run (sub blocks disabled)
// must decode every blob. The decoded-byte gap between the two runs is
// the headline; the issue targets >= 10x.
func BenchmarkAggSubBucket(b *testing.B) {
	queries := func(src, maxTS int64) []string {
		lo, hi := int64(15), maxTS-5 // deliberately off the bucket grid
		w := func(q, grp string) string {
			return q + ` FROM V WHERE id = ` + strconv.FormatInt(src, 10) +
				` AND ts >= ` + strconv.FormatInt(lo, 10) +
				` AND ts < ` + strconv.FormatInt(hi, 10) + grp
		}
		return []string{
			w(`SELECT TIME_BUCKET(1000, ts), COUNT(*), SUM(t1), MIN(t0), MAX(t0)`, ` GROUP BY TIME_BUCKET(1000, ts)`),
			w(`SELECT TIME_BUCKET(5000, ts), COUNT(*), AVG(t2), MAX(t1)`, ` GROUP BY TIME_BUCKET(5000, ts)`),
		}
	}
	run := func(b *testing.B, subMs int64) {
		h, src, maxTS := benchQueryFixture(b, Options{SubBucketMs: subMs})
		qs := queries(src, maxTS)
		var decoded int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				res, err := h.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.FetchAll(); err != nil {
					b.Fatal(err)
				}
				decoded += res.BlobBytes()
			}
		}
		b.StopTimer()
		st := h.TotalStats()
		n := max64(int64(b.N), 1)
		folded := st.SubBucketBytesNotDecoded + st.BytesNotDecoded
		b.ReportMetric(float64(decoded)/float64(n), "decodedB/op")
		b.ReportMetric(float64(folded+decoded)/float64(n), "sweptB/op")
		if decoded > 0 {
			b.ReportMetric(float64(folded+decoded)/float64(decoded), "reduction-x")
		}
		b.ReportMetric(float64(st.SubBucketFolds)/float64(n), "subFolds/op")
	}
	b.Run("sub-1000ms", func(b *testing.B) { run(b, 1000) })
	b.Run("v2", func(b *testing.B) { run(b, -1) })
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkTierCompaction measures the cold-recompaction pass over the
// 200k-point query fixture: every aged hot blob is coalesced into
// 8x-granularity cold blobs re-encoded at maximum codec effort. Each
// iteration builds a fresh hot store and times only the tier pass;
// cold-reduction-x is the hot/cold byte ratio (the issue targets >= 5x
// on this fixture).
func BenchmarkTierCompaction(b *testing.B) {
	var hotB, coldB, reclaimed, pts float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, _, maxTS := benchQueryFixture(b, Options{})
		pre, err := h.TierStats()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := h.TierSchema("scan", TierPolicy{ColdAfterMs: 1}, maxTS)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		post, err := h.TierStats()
		if err != nil {
			b.Fatal(err)
		}
		if res.ColdWritten == 0 || post.ColdBytes == 0 {
			b.Fatalf("cold pass did nothing: %+v", res)
		}
		hotB += float64(pre.HotBytes)
		coldB += float64(post.ColdBytes + post.HotBytes)
		reclaimed += float64(res.BytesReclaimed)
		pts += 200_000
		b.StartTimer()
	}
	b.StopTimer()
	n := float64(max64(int64(b.N), 1))
	b.ReportMetric(hotB/n, "hotB")
	b.ReportMetric(coldB/n, "coldB")
	b.ReportMetric(reclaimed/n, "reclaimedB/op")
	if coldB > 0 {
		b.ReportMetric(hotB/coldB, "cold-reduction-x")
	}
	b.ReportMetric(pts/b.Elapsed().Seconds(), "tier_pts_per_s")
}

// BenchmarkStubAggregate tiers the whole 200k-point fixture down to
// summary-only stubs (cold pass first, so stubs sit at 8x batch
// granularity), then measures aggregate pushdown over pure stubs.
// stub-reduction-x is the hot/stub byte ratio (the issue targets
// >= 50x); the COUNT correctness guard keeps the measurement honest.
func BenchmarkStubAggregate(b *testing.B) {
	h, src, maxTS := benchQueryFixture(b, Options{})
	pre, err := h.TierStats()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.TierSchema("scan", TierPolicy{ColdAfterMs: 1, StubAfterMs: 1}, maxTS); err != nil {
		b.Fatal(err)
	}
	post, err := h.TierStats()
	if err != nil {
		b.Fatal(err)
	}
	if post.StubBlobs == 0 {
		b.Fatal("fixture did not stub")
	}
	q := `SELECT COUNT(*), SUM(t1), MIN(t0), MAX(t0) FROM V WHERE id = ` + strconv.FormatInt(src, 10) +
		` AND ts >= 0 AND ts < ` + strconv.FormatInt(maxTS, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := res.FetchAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].AsInt() != 200_000 {
			b.Fatalf("aggregate over stubs returned %v", rows)
		}
	}
	b.StopTimer()
	st := h.TotalStats()
	n := max64(int64(b.N), 1)
	b.ReportMetric(float64(pre.HotBytes), "hotB")
	b.ReportMetric(float64(post.StubBytes), "stubB")
	if post.StubBytes > 0 {
		b.ReportMetric(float64(pre.HotBytes)/float64(post.StubBytes), "stub-reduction-x")
	}
	b.ReportMetric(float64(st.SummaryHits)/float64(n), "folds/op")
}

// BenchmarkClusterScatterAgg measures distributed aggregation end to
// end on a 3-node R=2 cluster: the coordinator rewrites each aggregate
// into per-shard partials (AVG as SUM+COUNT), every shard folds its
// partials from blob-header summaries, and the coordinator re-folds the
// partials with HAVING/ORDER BY/LIMIT applied over the merged groups.
// The decode sub-bench disables the storage pushdown on every replica,
// so the gap is the shard-local summary win measured through the full
// scatter path; decodedB/op vs foldedB/op is the byte-level view.
func BenchmarkClusterScatterAgg(b *testing.B) {
	const (
		nSources = 8
		nPoints  = 2500
	)
	build := func(b *testing.B) *Cluster {
		b.Helper()
		c, err := OpenCluster(ClusterOptions{
			Nodes:          3,
			Replicas:       2,
			WriteQuorum:    1,
			ReplicaTimeout: -1, // synchronous replica calls: no timeout goroutines under measurement
			Seed:           42,
			BatchSize:      64,
			GroupSize:      8,
			PoolPages:      64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.CreateSchema(SchemaType{
			Name: "bench", IDName: "id", TSName: "ts",
			Tags: []TagDef{{Name: "v0"}, {Name: "v1"}},
		}); err != nil {
			b.Fatal(err)
		}
		if err := c.CreateVirtualTable("V", "bench"); err != nil {
			b.Fatal(err)
		}
		schema, ok := c.Schema("bench")
		if !ok {
			b.Fatal("schema missing")
		}
		for i := 1; i <= nSources; i++ {
			if err := c.RegisterSource(DataSource{
				ID: int64(i), SchemaID: schema.ID, Regular: true, IntervalMs: 10,
			}); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < nPoints; j++ {
			for i := 1; i <= nSources; i++ {
				if err := c.Write(Point{
					Source: int64(i), TS: 1000 + int64(j)*10,
					Values: []float64{float64(j % 100), float64(i)},
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		return c
	}
	queries := []string{
		`SELECT id, COUNT(*), SUM(v0), MIN(v0), MAX(v0), AVG(v1) FROM V GROUP BY id`,
		`SELECT TIME_BUCKET(100000, ts), COUNT(*), MAX(v0) FROM V GROUP BY TIME_BUCKET(100000, ts) ORDER BY TIME_BUCKET(100000, ts) LIMIT 8`,
		`SELECT id, COUNT(*), AVG(v0) FROM V GROUP BY id HAVING COUNT(*) > 100 ORDER BY AVG(v0) DESC, id LIMIT 4`,
	}
	run := func(b *testing.B, pushdown bool) {
		c := build(b)
		defer c.Close()
		c.SetAggPushdown(pushdown)
		// Warm once so page-pool and blob-cache state is steady.
		for _, q := range queries {
			if _, err := c.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		before := c.TotalStats()
		var decoded int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				res, err := c.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				decoded += res.BlobBytes
			}
		}
		b.StopTimer()
		after := c.TotalStats()
		n := max64(int64(b.N), 1)
		notDecoded := after.BytesNotDecoded - before.BytesNotDecoded
		b.ReportMetric(float64(decoded)/float64(n), "decodedB/op")
		b.ReportMetric(float64(notDecoded+decoded)/float64(n), "foldedB/op")
		if decoded > 0 && notDecoded > 0 {
			b.ReportMetric(float64(notDecoded+decoded)/float64(decoded), "reduction-x")
		}
		b.ReportMetric(float64(after.SummaryHits-before.SummaryHits)/float64(n), "folds/op")
	}
	b.Run("pushdown", func(b *testing.B) { run(b, true) })
	b.Run("decode", func(b *testing.B) { run(b, false) })
}
