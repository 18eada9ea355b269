package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// templateNames are the twelve query classes, in reporting order.
var templateNames = []string{
	"hist", "slice", "fused1", "fusedN",
	"agg_total", "agg_bucket_aligned", "agg_bucket_unaligned", "agg_group_id",
	"LQ1", "LQ2", "LQ3", "agg_recent",
}

// cycles are the fixed round-robin mixes. Cheap templates repeat so the
// mix's median sits inside one template's latency distribution, not on
// the boundary between two.
var cycles = map[string][]string{
	"query_raw": {"hist", "fused1", "hist", "slice", "hist", "hist", "fused1", "hist", "fusedN", "hist"},
	"query_agg": {"agg_total", "agg_bucket_aligned", "agg_bucket_unaligned", "agg_total", "agg_bucket_aligned",
		"agg_group_id", "agg_total", "agg_bucket_aligned", "agg_bucket_unaligned"},
	"mixed_ld": {"LQ1", "LQ3", "LQ1", "LQ2", "LQ1", "LQ3", "agg_recent"},
}

// Bucket widths of the roll-up templates, in ms. 300 000 is a multiple
// of the 60 000 ms sub-bucket base (folds without decoding); 7 000 is
// not (boundary blobs decode).
const (
	alignedBucketMs   = 300_000
	unalignedBucketMs = 7_000
	recentBucketMs    = 60_000
	recentWindowMs    = 600_000
)

// request is one generated query with what the oracle expects of it and
// the parameters the ladder needs to replay it below the SQL layer.
type request struct {
	tmpl   string
	sql    string
	sumCol int // integer column to total (COUNT(*)), -1 for none

	// Expected result: exactly wantRows rows and, when sumCol >= 0,
	// exactly wantSum as the column's total.
	wantRows int
	wantSum  int64

	ids      []int64 // sources the query reads (nil = every source)
	t1, t2   int64   // inclusive timestamp bounds
	bucketMs int64
	byID     bool
	dimSQL   string // the relational side of a fused query, alone
}

// check compares a reply with the oracle: a result that is short, long
// or mis-counted is an error even though the server reported none.
func (r *request) check(rep reply) error {
	if rep.rows != r.wantRows {
		return fmt.Errorf("%s: %d rows, want %d: %s", r.tmpl, rep.rows, r.wantRows, r.sql)
	}
	if r.sumCol >= 0 && rep.sum != r.wantSum {
		return fmt.Errorf("%s: COUNT total %d, want %d: %s", r.tmpl, rep.sum, r.wantSum, r.sql)
	}
	return nil
}

func (r *request) exact(rows int, sum int64) { r.wantRows, r.wantSum = rows, sum }

// distinctBuckets counts the TIME_BUCKET groups of ascending timestamps.
func distinctBuckets(ts []int64, width int64) int {
	n, prev := 0, int64(-1)
	for _, t := range ts {
		if b := t / width; b != prev {
			n, prev = n+1, b
		}
	}
	return n
}

// window returns the sub-slice of ascending ts within [t1, t2].
func window(ts []int64, t1, t2 int64) []int64 {
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= t1 })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] > t2 })
	return ts[lo:hi]
}

// tdQueries generates the query_raw and query_agg templates over the
// preloaded TD store.
type tdQueries struct {
	truth *tdTruth
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int // Zipf rank -> account id - 1
}

func newTDQueries(truth *tdTruth, seed int64) *tdQueries {
	rng := rand.New(rand.NewSource(seed))
	accounts := len(truth.per) - 1
	return &tdQueries{
		truth: truth,
		rng:   rng,
		zipf:  rand.NewZipf(rng, 1.1, 1, uint64(accounts-1)),
		perm:  rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(accounts),
	}
}

// account draws a source with Zipf(1.1) popularity: a hot set the blob
// cache can hold and a cold tail it cannot.
func (q *tdQueries) account() int64 { return int64(q.perm[q.zipf.Uint64()] + 1) }

// span draws a window covering lo..hi of the store's history.
func (q *tdQueries) span(lo, hi float64) (int64, int64) {
	total := float64(q.truth.last - q.truth.first)
	w := int64(total * (lo + q.rng.Float64()*(hi-lo)))
	t1 := q.truth.first + q.rng.Int63n(q.truth.last-q.truth.first-w)
	return t1, t1 + w
}

// shortSpan draws the slice templates' 1-10 s window.
func (q *tdQueries) shortSpan() (int64, int64) {
	w := int64(1000 + q.rng.Intn(9000))
	t1 := q.truth.first + q.rng.Int63n(q.truth.last-q.truth.first-w)
	return t1, t1 + w
}

func (q *tdQueries) next(tmpl string) request {
	r := request{tmpl: tmpl, sumCol: -1}
	tr := q.truth
	switch tmpl {
	case "hist": // TQ1 with a bounded window
		id := q.account()
		r.t1, r.t2 = q.span(0.10, 0.25)
		r.ids = []int64{id}
		r.sql = fmt.Sprintf(`SELECT * FROM TRADE WHERE T_CA_ID = %d AND T_DTS BETWEEN %d AND %d`, id, r.t1, r.t2)
		r.exact(countIn(tr.per[id], r.t1, r.t2), 0)
	case "slice": // TQ2
		r.t1, r.t2 = q.shortSpan()
		r.sql = fmt.Sprintf(`SELECT * FROM TRADE WHERE T_DTS BETWEEN %d AND %d`, r.t1, r.t2)
		r.exact(countIn(tr.ts, r.t1, r.t2), 0)
	case "fused1": // TQ3
		id := q.account()
		r.ids = []int64{id}
		r.t1, r.t2 = tr.first, tr.last
		r.dimSQL = fmt.Sprintf(`SELECT CA_ID FROM ACCOUNT WHERE CA_NAME = 'acct_%06d'`, id)
		r.sql = fmt.Sprintf(`SELECT T_DTS, T_CHRG FROM TRADE t, ACCOUNT a WHERE a.CA_ID = t.T_CA_ID AND a.CA_NAME = 'acct_%06d'`, id)
		r.exact(len(tr.per[id]), 0)
	case "fusedN": // TQ4, narrowed to the customers who share one's birthday
		dob := tr.custDOB[q.rng.Intn(len(tr.custDOB))]
		lo, hi := dob, dob
		rows := 0
		for c, d := range tr.custDOB {
			if d >= lo && d <= hi {
				for _, a := range tr.custAccounts[c] {
					r.ids = append(r.ids, a)
					rows += len(tr.per[a])
				}
			}
		}
		r.t1, r.t2 = tr.first, tr.last
		r.dimSQL = fmt.Sprintf(`SELECT CA_ID FROM ACCOUNT a, CUSTOMER c WHERE a.CA_C_ID = c.C_ID AND C_DOB BETWEEN %d AND %d`, lo, hi)
		r.sql = fmt.Sprintf(`SELECT CA_NAME, T_DTS, T_CHRG FROM TRADE t, ACCOUNT a, CUSTOMER c WHERE a.CA_ID = t.T_CA_ID AND a.CA_C_ID = c.C_ID AND C_DOB BETWEEN %d AND %d`, lo, hi)
		r.exact(rows, 0)
	case "agg_total":
		id := q.account()
		r.ids = []int64{id}
		r.t1, r.t2 = tr.first, tr.last
		r.sumCol = 0
		r.sql = fmt.Sprintf(`SELECT COUNT(*), AVG(T_TRADE_PRICE), MIN(T_TRADE_PRICE), MAX(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = %d`, id)
		r.exact(1, int64(len(tr.per[id])))
	case "agg_bucket_aligned":
		id := q.account()
		r.ids = []int64{id}
		r.t1, r.t2 = tr.first, tr.last
		r.bucketMs, r.sumCol = alignedBucketMs, 1
		r.sql = fmt.Sprintf(`SELECT TIME_BUCKET(%d, T_DTS), COUNT(*), AVG(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = %d GROUP BY TIME_BUCKET(%d, T_DTS)`,
			alignedBucketMs, id, alignedBucketMs)
		r.exact(distinctBuckets(tr.per[id], alignedBucketMs), int64(len(tr.per[id])))
	case "agg_bucket_unaligned":
		id := q.account()
		r.ids = []int64{id}
		r.t1, r.t2 = q.span(0.10, 0.25)
		r.bucketMs, r.sumCol = unalignedBucketMs, 1
		r.sql = fmt.Sprintf(`SELECT TIME_BUCKET(%d, T_DTS), COUNT(*), AVG(T_TRADE_PRICE) FROM TRADE WHERE T_CA_ID = %d AND T_DTS BETWEEN %d AND %d GROUP BY TIME_BUCKET(%d, T_DTS)`,
			unalignedBucketMs, id, r.t1, r.t2, unalignedBucketMs)
		in := window(tr.per[id], r.t1, r.t2)
		r.exact(distinctBuckets(in, unalignedBucketMs), int64(len(in)))
	case "agg_group_id":
		r.t1, r.t2 = q.shortSpan()
		r.byID, r.sumCol = true, 1
		r.sql = fmt.Sprintf(`SELECT T_CA_ID, COUNT(*), MAX(T_TRADE_PRICE) FROM TRADE WHERE T_DTS BETWEEN %d AND %d GROUP BY T_CA_ID`, r.t1, r.t2)
		groups := 0
		for _, ts := range tr.per[1:] {
			if countIn(ts, r.t1, r.t2) > 0 {
				groups++
			}
		}
		r.exact(groups, int64(countIn(tr.ts, r.t1, r.t2)))
	default:
		panic("tdQueries: unknown template " + tmpl)
	}
	return r
}

// ldQueries generates the mixed_ld dashboard templates over the archive
// fleet's table, which the set-up loaded and nothing writes afterwards.
type ldQueries struct {
	truth *ldTruth
	rng   *rand.Rand
}

func newLDQueries(truth *ldTruth, seed int64) *ldQueries {
	return &ldQueries{truth: truth, rng: rand.New(rand.NewSource(seed))}
}

// span draws a window of w ms inside the archive's history.
func (q *ldQueries) span(w int64) (int64, int64) {
	first, last := q.truth.ts[0], q.truth.ts[len(q.truth.ts)-1]
	t1 := first + q.rng.Int63n(max(last-w-first, 1))
	return t1, t1 + w
}

func (q *ldQueries) next(tmpl string) request {
	r := request{tmpl: tmpl, sumCol: -1}
	t := q.truth
	switch tmpl {
	case "LQ1", "LQ3":
		s := q.rng.Intn(len(t.per))
		id := t.baseID + int64(s) + 1
		r.ids = []int64{id}
		r.t1, r.t2 = 0, 1<<60 // the SQL has no time bound
		if tmpl == "LQ1" {
			r.sql = fmt.Sprintf(`SELECT * FROM Observation WHERE SensorId = %d`, id)
		} else {
			r.dimSQL = fmt.Sprintf(`SELECT SensorId FROM LinkedSensor WHERE SensorName = 'A%05d'`, s+1)
			r.sql = fmt.Sprintf(`SELECT Timestamp, o.SensorId, AirTemperature FROM Observation o, LinkedSensor l WHERE l.SensorId = o.SensorId AND SensorName = 'A%05d'`, s+1)
		}
		r.exact(t.per[s], 0)
	case "LQ2":
		r.t1, r.t2 = q.span(int64(10_000 + q.rng.Intn(50_000)))
		r.sql = fmt.Sprintf(`SELECT Timestamp, SensorId, AirTemperature FROM Observation WHERE Timestamp BETWEEN %d AND %d`, r.t1, r.t2)
		r.exact(countIn(t.ts, r.t1, r.t2), 0)
	case "agg_recent":
		r.t1, r.t2 = q.span(recentWindowMs)
		r.bucketMs, r.sumCol = recentBucketMs, 1
		r.sql = fmt.Sprintf(`SELECT TIME_BUCKET(%d, Timestamp), COUNT(*), AVG(AirTemperature) FROM Observation WHERE Timestamp BETWEEN %d AND %d GROUP BY TIME_BUCKET(%d, Timestamp)`,
			recentBucketMs, r.t1, r.t2, recentBucketMs)
		in := window(t.ts, r.t1, r.t2)
		r.exact(distinctBuckets(in, recentBucketMs), int64(len(in)))
	default:
		panic("ldQueries: unknown template " + tmpl)
	}
	return r
}
