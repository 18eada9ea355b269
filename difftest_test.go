package odh

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"odh/internal/relational"
)

// Differential harness: the same randomized IoT workload is driven into
// four ODH historians — {serial, parallel} × {cache off, cache on}, with
// sub-bucket summaries at a base no bucketed template can use on the
// serial pair and at a 100 ms base on the parallel pair — and mirrored
// into a plain relational table. Every query template must return
// byte-identical rows across the four ODH configurations (same engine,
// same data, so even row order must match) and the same multiset of rows
// as the relational baseline. Maintenance passes (flush, reorganize,
// coalesce, retention) are interleaved so the comparisons cover every
// on-disk layout the store can be in, the same TIME_BUCKET queries
// decoding on one pair and folding sub-buckets on the other. While each
// reorganize, coalesce, cold, retention and stub pass executes, one reader
// per configuration keeps comparing queries against the baseline, so the
// passes interleave during scans, not just between them. The schema's
// last tag, c, is read by SELECT * alone: every other template projects
// or filters a and b, so its scans hand the executor rows that stop short
// of the schema's width.

type diffConfig struct {
	name string
	opts Options
}

func diffConfigs() []diffConfig {
	base := Options{BatchSize: 16, GroupSize: 4}
	mk := func(name string, workers int, cache, subMs int64) diffConfig {
		o := base
		o.QueryWorkers = workers
		o.BlobCacheBytes = cache
		o.SubBucketMs = subMs
		return diffConfig{name: name, opts: o}
	}
	// The serial pair writes sub-bucket blocks at the default 60 000 ms
	// base, which no template's bucket width (50 to 50 000 ms) is a
	// multiple of, so its bucketed templates decode; the parallel pair
	// writes them at a 100 ms base — small enough that every RTS blob
	// straddles bucket edges — so the same templates fold from sub-summaries.
	return []diffConfig{
		mk("serial", 0, 0, 0),
		mk("serial+cache", 0, 16<<20, 0),
		mk("parallel+sub", 4, 0, 100),
		mk("parallel+cache+sub", 4, 16<<20, 100),
	}
}

type diffSource struct {
	id       int64
	slot     int
	interval int64
	regular  bool
	idx      int64 // per-source write counter
	lastTS   int64 // irregular sources advance from here
}

const refDDL = `CREATE TABLE REF (id BIGINT, ts BIGINT, a DOUBLE, b DOUBLE, c DOUBLE)`

// diffNorm renders a value for order-insensitive semantic comparison
// (virtual timestamps are KindTime, the baseline's are KindInt — both
// normalize to the same integer).
func diffNorm(v relational.Value) string {
	switch v.Kind {
	case relational.KindNull:
		return "∅"
	case relational.KindInt, relational.KindTime:
		return strconv.FormatInt(v.AsInt(), 10)
	case relational.KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	default:
		return v.String()
	}
}

func diffFetch(t *testing.T, h *Historian, sql string) (raw []string, norm []string) {
	t.Helper()
	raw, norm, err := diffRows(h, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return raw, norm
}

// diffRows is diffFetch for goroutines that may not call t.Fatal.
func diffRows(h *Historian, sql string) (raw []string, norm []string, err error) {
	res, err := h.Query(sql)
	if err != nil {
		return nil, nil, err
	}
	rows, err := res.FetchAll()
	if err != nil {
		return nil, nil, err
	}
	for _, row := range rows {
		rawCells := make([]string, len(row))
		normCells := make([]string, len(row))
		for i, v := range row {
			rawCells[i] = v.String()
			normCells[i] = diffNorm(v)
		}
		raw = append(raw, strings.Join(rawCells, "|"))
		norm = append(norm, strings.Join(normCells, "|"))
	}
	sort.Strings(norm)
	return raw, norm, nil
}

func TestDifferentialODHvsRelational(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 250
	}
	rng := rand.New(rand.NewSource(20260806))

	configs := diffConfigs()
	hs := make([]*Historian, len(configs))
	for i, c := range configs {
		h, err := Open("", c.opts)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hs[i] = h
	}
	// The relational baseline lives in its own historian so retention can
	// rebuild it from scratch.
	ref, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ref.Close() }()
	mustQuery(t, ref, refDDL)
	mustQuery(t, ref, `CREATE INDEX ref_by_id ON REF (id)`)
	mustQuery(t, ref, `CREATE INDEX ref_by_ts ON REF (ts)`)

	var sources []*diffSource
	for i, h := range hs {
		schema, err := h.CreateSchema(SchemaType{
			Name: "env", IDName: "id", TSName: "ts",
			Tags: []TagDef{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.CreateVirtualTable("D", "env"); err != nil {
			t.Fatal(err)
		}
		reg := func(regular bool, interval int64) {
			ds, err := h.RegisterSource(DataSource{SchemaID: schema.ID, Regular: regular, IntervalMs: interval})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				sources = append(sources, &diffSource{id: ds.ID, slot: ds.GroupSlot, interval: interval, regular: regular})
			}
		}
		// 2 RTS + 1 IRTS + 4 MG (one group); registration order fixes IDs,
		// so all historians assign identical source IDs and slots.
		reg(true, 10)
		reg(true, 10)
		reg(false, 10)
		for m := 0; m < 4; m++ {
			reg(true, 10_000)
		}
	}

	var maxTS int64 = 1
	// c comes from its own seeded generator: it takes no draw from rng.
	crng := rand.New(rand.NewSource(20261017))
	// writeAll writes a point to every historian and returns its REF row.
	writeAll := func(src *diffSource, ts int64, a, b float64) string {
		t.Helper()
		c := float64(crng.Intn(1000)) / 4
		for _, h := range hs {
			if err := h.Writer().WritePoint(src.id, ts, a, b, c); err != nil {
				t.Fatal(err)
			}
		}
		if ts > maxTS {
			maxTS = ts
		}
		return fmt.Sprintf("(%d, %d, %g, %g, %g)", src.id, ts, a, b, c)
	}

	// Preload a dense burst on the RTS sources so aggregates clear the
	// optimizer's cost threshold and actually fan out; without it every
	// one in this miniature workload would be planned serial and the
	// configurations would not differ.
	var preload []string
	for _, src := range sources[:2] {
		for k := 0; k < 10000; k++ {
			src.idx++
			ts := src.idx * src.interval
			a, b := float64(rng.Intn(8)), float64(rng.Intn(100))
			preload = append(preload, writeAll(src, ts, a, b))
			if len(preload) == 256 {
				mustQuery(t, ref, `INSERT INTO REF (id, ts, a, b, c) VALUES `+strings.Join(preload, ", "))
				preload = preload[:0]
			}
		}
	}
	if len(preload) > 0 {
		mustQuery(t, ref, `INSERT INTO REF (id, ts, a, b, c) VALUES `+strings.Join(preload, ", "))
	}
	for _, h := range hs {
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	upgraded := make([]int, len(hs)) // records UpgradeBlobs rewrote, per configuration
	var pendingRef []string
	flushRef := func() {
		t.Helper()
		if len(pendingRef) == 0 {
			return
		}
		mustQuery(t, ref, `INSERT INTO REF (id, ts, a, b, c) VALUES `+strings.Join(pendingRef, ", "))
		pendingRef = pendingRef[:0]
	}

	// ghost is an id no source has; ghostSel selects it the three ways the
	// planner absorbs an id conjunct: alone, as a one-id IN list, and
	// beside a registered id.
	ghost := sources[len(sources)-1].id + 1000
	ghostSel := func() string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("id = %d", ghost)
		case 1:
			return fmt.Sprintf("id IN (%d)", ghost)
		}
		return fmt.Sprintf("id IN (%d, %d)", ghost, sources[rng.Intn(len(sources))].id)
	}

	templates := []func() string{
		func() string { // point/range by id
			src := sources[rng.Intn(len(sources))]
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			return fmt.Sprintf(`SELECT id, ts, a, b FROM %%s WHERE id = %d AND ts >= %d AND ts < %d`, src.id, t1, t2)
		},
		func() string { // every tag of one source: the one template reading c
			src := sources[rng.Intn(len(sources))]
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			return fmt.Sprintf(`SELECT * FROM %%s WHERE id = %d AND ts >= %d AND ts < %d`, src.id, t1, t2)
		},
		func() string { // id IN
			a, b, c := sources[rng.Intn(len(sources))], sources[rng.Intn(len(sources))], sources[rng.Intn(len(sources))]
			return fmt.Sprintf(`SELECT id, ts, a, b FROM %%s WHERE id IN (%d, %d, %d)`, a.id, b.id, c.id)
		},
		func() string { // schema slice
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS/2+1)
			return fmt.Sprintf(`SELECT id, ts, a, b FROM %%s WHERE ts >= %d AND ts < %d`, t1, t2)
		},
		func() string { // id IN with a duplicate: each source once
			a, b := sources[rng.Intn(len(sources))], sources[rng.Intn(len(sources))]
			return fmt.Sprintf(`SELECT id, ts, a, b FROM %%s WHERE id IN (%d, %d, %d)`, a.id, b.id, a.id)
		},
		func() string { // fractional ts bounds: bracketed, so still filtered
			src := sources[rng.Intn(len(sources))]
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			return fmt.Sprintf(`SELECT id, ts, a FROM %%s WHERE id = %d AND ts > %d.5 AND ts <= %d.5`, src.id, t1, t2)
		},
		func() string { // tag predicate (zone-map path on the ODH side)
			src := sources[rng.Intn(len(sources))]
			lo := rng.Intn(6)
			return fmt.Sprintf(`SELECT id, ts, a FROM %%s WHERE id = %d AND a >= %d AND a < %d`, src.id, lo, lo+3)
		},
		func() string { // aggregates over a window
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			return fmt.Sprintf(`SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM %%s WHERE ts >= %d AND ts < %d`, t1, t2)
		},
		func() string { // grouped aggregates
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			return fmt.Sprintf(`SELECT id, COUNT(*), SUM(a) FROM %%s WHERE ts >= %d AND ts < %d GROUP BY id`, t1, t2)
		},
		func() string { // full-history aggregate: the one shape whose cost
			// estimate is the schema's entire blob footprint, so the
			// parallel configurations actually fan it out.
			return fmt.Sprintf(`SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM %%s WHERE ts >= 0 AND ts < %d`, maxTS+1)
		},
		func() string { // TIME_BUCKET roll-up (bucket-aligned summary folds)
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			w := []int64{50, 500, 5000, 50_000}[rng.Intn(4)]
			return fmt.Sprintf(`SELECT TIME_BUCKET(%d, ts), COUNT(*), SUM(a), MAX(b) FROM %%s WHERE ts >= %d AND ts < %d GROUP BY TIME_BUCKET(%d, ts)`, w, t1, t2, w)
		},
		func() string { // aggregate gated by a tag predicate: a blob folds
			// only when its summary proves the predicate for every row
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			lo := rng.Intn(6)
			return fmt.Sprintf(`SELECT COUNT(*), COUNT(a), AVG(b) FROM %%s WHERE ts >= %d AND ts < %d AND a >= %d`, t1, t2, lo)
		},
		func() string { // per-source bucketed aggregate (historical pushdown)
			src := sources[rng.Intn(len(sources))]
			w := []int64{100, 1000, 20_000}[rng.Intn(3)]
			return fmt.Sprintf(`SELECT TIME_BUCKET(%d, ts), COUNT(*), MIN(a) FROM %%s WHERE id = %d GROUP BY TIME_BUCKET(%d, ts)`, w, src.id, w)
		},
		func() string { // an unregistered id reads nothing
			return fmt.Sprintf(`SELECT id, ts, a, b FROM %%s WHERE %s`, ghostSel())
		},
		func() string { // aggregates over an unregistered id: COUNT 0 and
			// NULLs, or the registered id's alone
			return fmt.Sprintf(`SELECT COUNT(*), SUM(a), MAX(b) FROM %%s WHERE %s`, ghostSel())
		},
		func() string { // unaligned-window TIME_BUCKET at sub-bucket base
			// multiples: straddling blobs fold from sub-summaries on the
			// sub-enabled configurations and decode on the others — the
			// rows must still match byte for byte.
			w := []int64{100, 300, 1500}[rng.Intn(3)]
			t1 := rng.Int63n(maxTS + 1)
			t2 := t1 + rng.Int63n(maxTS)
			return fmt.Sprintf(`SELECT TIME_BUCKET(%d, ts), COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(b) FROM %%s WHERE ts >= %d AND ts < %d GROUP BY TIME_BUCKET(%d, ts)`, w, t1, t2, w)
		},
	}

	compare := func(round int, tmpl string) {
		t.Helper()
		raw0, norm0 := diffFetch(t, hs[0], fmt.Sprintf(tmpl, "D"))
		for i := 1; i < len(hs); i++ {
			raw, _ := diffFetch(t, hs[i], fmt.Sprintf(tmpl, "D"))
			if strings.Join(raw, "\n") != strings.Join(raw0, "\n") {
				t.Fatalf("round %d: %q diverged between %s (%d rows) and %s (%d rows)",
					round, tmpl, configs[0].name, len(raw0), configs[i].name, len(raw))
			}
		}
		_, refNorm := diffFetch(t, ref, fmt.Sprintf(tmpl, "REF"))
		if strings.Join(norm0, "\n") != strings.Join(refNorm, "\n") {
			t.Fatalf("round %d: %q diverged from the relational baseline (%d vs %d rows)",
				round, tmpl, len(norm0), len(refNorm))
		}
	}

	// racing runs step on every historian while one reader per historian
	// keeps running queries (templates, like compare's) and holding each
	// result to the relational baseline's. The data does not change during
	// a step, so the baseline's answers are taken once, up front.
	racing := func(round int, queries []string, step func(i int, h *Historian) error) {
		t.Helper()
		want := make([]string, len(queries))
		for q, tmpl := range queries {
			_, norm := diffFetch(t, ref, fmt.Sprintf(tmpl, "REF"))
			want[q] = strings.Join(norm, "\n")
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i, h := range hs {
			wg.Add(1)
			go func(i int, h *Historian) {
				defer wg.Done()
				for n := i; ; n++ {
					tmpl := queries[n%len(queries)]
					_, norm, err := diffRows(h, fmt.Sprintf(tmpl, "D"))
					if err != nil {
						t.Errorf("round %d: %s during maintenance: %q: %v", round, configs[i].name, tmpl, err)
						return
					}
					if got := strings.Join(norm, "\n"); got != want[n%len(queries)] {
						t.Errorf("round %d: %s during maintenance: %q diverged from the relational baseline (%d rows)",
							round, configs[i].name, tmpl, len(norm))
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(i, h)
		}
		for i, h := range hs {
			if err := step(i, h); err != nil {
				t.Errorf("round %d: %s: %v", round, configs[i].name, err)
			}
		}
		close(stop)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	// someQueries draws n templates from their own generator, so racing
	// reads leave the main workload's random sequence alone.
	qrng := rand.New(rand.NewSource(20260925))
	someQueries := func(n int) []string {
		saved := rng
		rng = qrng
		defer func() { rng = saved }()
		out := make([]string, n)
		for i := range out {
			out[i] = templates[rng.Intn(len(templates))]()
		}
		return out
	}

	rebuildRef := func(round int) {
		t.Helper()
		// Retention is batch-granular, so the surviving set is whatever the
		// store kept; all configurations must keep the same rows, and
		// the baseline is rebuilt from that agreed-on state.
		full := `SELECT * FROM D WHERE ts >= 0 AND ts < ` + strconv.FormatInt(maxTS+1, 10)
		raw0, _ := diffFetch(t, hs[0], full)
		for i := 1; i < len(hs); i++ {
			raw, _ := diffFetch(t, hs[i], full)
			if strings.Join(raw, "\n") != strings.Join(raw0, "\n") {
				t.Fatalf("round %d: post-retention state diverged between %s and %s", round, configs[0].name, configs[i].name)
			}
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		ref, err = Open("", Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustQuery(t, ref, refDDL)
		mustQuery(t, ref, `CREATE INDEX ref_by_id ON REF (id)`)
		mustQuery(t, ref, `CREATE INDEX ref_by_ts ON REF (ts)`)
		res, err := hs[0].Query(full)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.FetchAll()
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]string, 0, 256)
		flush := func() {
			if len(batch) == 0 {
				return
			}
			mustQuery(t, ref, `INSERT INTO REF (id, ts, a, b, c) VALUES `+strings.Join(batch, ", "))
			batch = batch[:0]
		}
		for _, row := range rows {
			batch = append(batch, fmt.Sprintf("(%d, %d, %s, %s, %s)",
				row[0].AsInt(), row[1].AsInt(),
				strconv.FormatFloat(row[2].AsFloat(), 'g', -1, 64),
				strconv.FormatFloat(row[3].AsFloat(), 'g', -1, 64),
				strconv.FormatFloat(row[4].AsFloat(), 'g', -1, 64)))
			if len(batch) == 256 {
				flush()
			}
		}
		flush()
	}

	for round := 0; round < rounds; round++ {
		for _, src := range sources {
			n := rng.Intn(4) // 0-3 points per source per round
			for k := 0; k < n; k++ {
				var ts int64
				if src.regular {
					src.idx += int64(1 + rng.Intn(3)) // occasional gaps
					ts = src.idx*src.interval + int64(src.slot)
				} else {
					src.lastTS += int64(1 + rng.Intn(30))
					ts = src.lastTS
				}
				a, b := float64(rng.Intn(8)), float64(rng.Intn(100))
				pendingRef = append(pendingRef, writeAll(src, ts, a, b))
			}
		}
		flushRef()

		if round%17 == 16 {
			for _, h := range hs {
				if err := h.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if round%211 == 210 {
			racing(round, someQueries(6), func(_ int, h *Historian) error {
				return h.Reorganize("env", maxTS/2)
			})
		}
		if round%307 == 306 {
			racing(round, someQueries(6), func(_ int, h *Historian) error {
				_, _, err := h.Coalesce("env")
				return err
			})
		}
		if round%389 == 388 {
			// Retention is batch-granular and drops nothing at or above the
			// cutoff: only windows above it stay comparable while it runs.
			cutoff := maxTS / 3
			above := fmt.Sprintf("ts >= %d AND ts < %d", cutoff, maxTS+1)
			racing(round, []string{
				`SELECT id, ts, a, b FROM %s WHERE ` + above,
				fmt.Sprintf(`SELECT id, ts, a, b FROM %%s WHERE id = %d AND `, sources[qrng.Intn(len(sources))].id) + above,
				`SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM %s WHERE ` + above,
				`SELECT id, COUNT(*), SUM(a) FROM %s WHERE ` + above + ` GROUP BY id`,
			}, func(_ int, h *Historian) error {
				_, err := h.DropBefore("env", cutoff)
				return err
			})
			rebuildRef(round)
		}
		if round%233 == 232 {
			// The statistics repair: every flush wrote the store's one
			// format, so it rewrites no record.
			racing(round, someQueries(6), func(i int, h *Historian) error {
				res, err := h.UpgradeBlobs()
				upgraded[i] += res.Rewritten
				return err
			})
		}
		if round%251 == 250 {
			// Cold-compact every other configuration only: the cold
			// tier is lossless, so tiered and untiered stores must keep
			// returning byte-identical rows for every template.
			pol := TierPolicy{ColdAfterMs: maxTS + 1 - maxTS/2}
			racing(round, someQueries(6), func(i int, h *Historian) error {
				if i%2 == 0 {
					return nil
				}
				_, err := h.TierSchema("env", pol, maxTS+1)
				return err
			})
		}

		compare(round, templates[rng.Intn(len(templates))]())
	}

	// Every configuration saw the same writes; the instrumented ones must
	// actually have exercised their machinery.
	if st := hs[3].TotalStats(); st.BlobCacheHits == 0 {
		t.Fatalf("parallel+cache config never hit its cache: %+v", st)
	}
	if st := hs[2].TotalStats(); st.ParallelScans == 0 {
		t.Fatalf("parallel config never fanned out an aggregate: %+v", st)
	}
	for i, n := range upgraded {
		if n != 0 {
			t.Fatalf("%s: UpgradeBlobs rewrote %d records of the store's own format", configs[i].name, n)
		}
	}
	if st := hs[0].TotalStats(); st.SummaryHits == 0 || st.BytesNotDecoded == 0 {
		t.Fatalf("aggregate templates never folded a summary: %+v", st)
	}
	if st := hs[0].TotalStats(); st.SubBucketFolds != 0 {
		t.Fatalf("a template sub-folded on the default base, which no width is a multiple of: %+v", st)
	}
	for _, i := range []int{2, 3} {
		if st := hs[i].TotalStats(); st.SubBucketFolds == 0 || st.SubBucketBytesNotDecoded == 0 {
			t.Fatalf("%s config never folded a sub-bucket summary: %+v", configs[i].name, st)
		}
	}

	// Stub epilogue: summary-only stubs must answer full-window
	// aggregates with the exact bytes the row-bearing store produced, on
	// every configuration, and raw scans into stubbed history must fail
	// with the typed error everywhere.
	aggTemplates := []string{
		fmt.Sprintf(`SELECT COUNT(*), COUNT(a), SUM(a), MIN(b), MAX(b) FROM %%s WHERE ts >= 0 AND ts < %d`, maxTS+1),
		fmt.Sprintf(`SELECT id, COUNT(*), SUM(a) FROM %%s WHERE ts >= 0 AND ts < %d GROUP BY id`, maxTS+1),
	}
	preStub := make([][]string, len(aggTemplates))
	for i, tmpl := range aggTemplates {
		compare(rounds, tmpl)
		preStub[i], _ = diffFetch(t, hs[0], fmt.Sprintf(tmpl, "D"))
	}
	stubPol := TierPolicy{ColdAfterMs: maxTS + 1 - (3*maxTS)/4, StubAfterMs: maxTS + 1 - maxTS/2}
	racing(rounds, aggTemplates, func(_ int, h *Historian) error {
		if err := h.Flush(); err != nil {
			return err
		}
		_, err := h.TierSchema("env", stubPol, maxTS+1)
		return err
	})
	if st, err := hs[0].TierStats(); err != nil || st.StubBlobs == 0 {
		t.Fatalf("stub epilogue produced no stubs: %+v err=%v", st, err)
	}
	for i, tmpl := range aggTemplates {
		compare(rounds+1, tmpl)
		raw, _ := diffFetch(t, hs[0], fmt.Sprintf(tmpl, "D"))
		if strings.Join(raw, "\n") != strings.Join(preStub[i], "\n") {
			t.Fatalf("stubbed aggregate diverged from row-bearing answer:\n got %v\nwant %v", raw, preStub[i])
		}
	}
	rawScan := fmt.Sprintf(`SELECT id, ts, a, b FROM D WHERE ts >= 0 AND ts < %d`, maxTS/2)
	for i, h := range hs {
		res, err := h.Query(rawScan)
		if err == nil {
			_, err = res.FetchAll()
		}
		if !errors.Is(err, ErrStubbed) {
			t.Fatalf("%s: raw scan over stubbed range err = %v, want ErrStubbed", configs[i].name, err)
		}
	}
}

func mustQuery(t *testing.T, h *Historian, sql string) {
	t.Helper()
	res, err := h.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if _, err := res.FetchAll(); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
