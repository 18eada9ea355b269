package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"odh"
	"odh/internal/cluster"
	"odh/internal/relational"
	"odh/internal/retry"
	"odh/internal/sqlexec"
)

// The tests in this file see the cluster the way cmd/odh-cli does: through
// its exported API only, beside a plain odh.Historian.

func openTestCluster(t *testing.T, nodes, replicas, quorum int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewReplicated(cluster.Options{
		Nodes:          nodes,
		Replicas:       replicas,
		WriteQuorum:    quorum,
		ReplicaTimeout: -1, // deterministic tests: no timeout goroutines
		Retry:          retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		Seed:           1,
		Node:           odh.Options{BatchSize: 8, GroupSize: 4, PoolPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func seedTestCluster(t *testing.T, c *cluster.Cluster, nSources, pointsPer int) {
	t.Helper()
	if err := c.CreateSchema(odh.SchemaType{
		Name: "env",
		Tags: []odh.TagDef{{Name: "temp"}, {Name: "wind"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("env_v", "env"); err != nil {
		t.Fatal(err)
	}
	schema, ok := c.Schema("env")
	if !ok {
		t.Fatal("schema not found after CreateSchema")
	}
	for i := 1; i <= nSources; i++ {
		if err := c.RegisterSource(odh.DataSource{
			ID: int64(i), SchemaID: schema.ID, Regular: true, IntervalMs: 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= nSources; i++ {
		for j := 0; j < pointsPer; j++ {
			p := odh.Point{Source: int64(i), TS: int64(1000 + j*100), Values: []float64{float64(j), float64(i)}}
			if err := c.Write(p); err != nil {
				t.Fatalf("write source %d point %d: %v", i, j, err)
			}
		}
	}
}

// checkedCopies counts the copies whose own fsck ran, requiring that each
// of them walked B-tree structure as well as pages and blobs.
func checkedCopies(t *testing.T, rep *cluster.IntegrityReport) int {
	t.Helper()
	checked := 0
	for _, ci := range rep.Copies {
		if ci.Report == nil {
			continue
		}
		checked++
		if ci.Report.PagesChecked == 0 || ci.Report.TreesChecked == 0 {
			t.Fatalf("shard %d copy %d: fsck walked %d pages and %d trees, want both > 0",
				ci.Shard, ci.Replica, ci.Report.PagesChecked, ci.Report.TreesChecked)
		}
	}
	return checked
}

// TestPublicClusterEndToEnd drives the exported cluster API through a
// full failover cycle: write replicated data, kill a node, query
// through the survivors, recover, catch up, verify.
func TestPublicClusterEndToEnd(t *testing.T) {
	c := openTestCluster(t, 3, 2, 1)
	seedTestCluster(t, c, 9, 8)

	if got, want := c.Nodes(), 3; got != want {
		t.Fatalf("Nodes() = %d, want %d", got, want)
	}
	if got, want := c.Replicas(), 2; got != want {
		t.Fatalf("Replicas() = %d, want %d", got, want)
	}

	const q = `SELECT id, COUNT(*), SUM(temp) FROM env_v GROUP BY id`
	healthy, err := c.Query(q)
	if err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	if len(healthy.Rows) != 9 {
		t.Fatalf("healthy query rows = %d, want 9", len(healthy.Rows))
	}

	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	degradedWritesOK := 0
	for i := 1; i <= 9; i++ {
		err := c.Write(odh.Point{Source: int64(i), TS: 9000, Values: []float64{1, float64(i)}})
		if err != nil {
			t.Fatalf("write during outage (quorum 1 should survive one node): %v", err)
		}
		degradedWritesOK++
	}
	outage, err := c.Query(q)
	if err != nil {
		t.Fatalf("query during single-node outage with R=2: %v", err)
	}
	if len(outage.Rows) != 9 {
		t.Fatalf("outage query rows = %d, want 9", len(outage.Rows))
	}
	if c.Stats().Failovers == 0 {
		t.Fatal("expected failovers during outage")
	}

	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CatchUp(1); err != nil {
		t.Fatalf("catch up: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("cluster integrity:\n%v", rep)
	}
	if got := checkedCopies(t, rep); got != 6 {
		t.Fatalf("copies checked = %d, want 6", got)
	}
	if len(rep.SkippedCopies) != 0 {
		t.Fatalf("copies still stale after catch-up: %v", rep.SkippedCopies)
	}

	after, err := c.Query(`SELECT COUNT(*) FROM env_v`)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(9*8 + degradedWritesOK)
	if got := after.Rows[0][0].AsInt(); got != want {
		t.Fatalf("total rows after recovery = %d, want %d", got, want)
	}

	for _, ns := range c.Status() {
		if ns.Down || ns.Stalled {
			t.Fatalf("node %d still down/stalled after recovery", ns.Node)
		}
	}
}

// TestVerifyReportsDownCopies pins the shape of the cluster fsck: every
// live copy carries its own historian's report — pages, B-tree structure
// and blobs — and a down copy is an entry saying so, not a gap.
func TestVerifyReportsDownCopies(t *testing.T) {
	c := openTestCluster(t, 3, 2, 1)
	seedTestCluster(t, c, 9, 8)
	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Copies) != 6 {
		t.Fatalf("report lists %d copies, want all 6", len(rep.Copies))
	}
	down := 0
	for _, ci := range rep.Copies {
		if ci.Host == 2 {
			down++
			if ci.Report != nil || !errors.Is(ci.Err, cluster.ErrNodeDown) || ci.OK() {
				t.Fatalf("down copy (shard %d copy %d) reported as %+v", ci.Shard, ci.Replica, ci)
			}
			continue
		}
		if !ci.OK() || ci.Report.TreesChecked == 0 || ci.Report.BlobsChecked == 0 {
			t.Fatalf("live copy (shard %d copy %d): err=%v report=%v", ci.Shard, ci.Replica, ci.Err, ci.Report)
		}
	}
	if down != 2 {
		t.Fatalf("node 2 hosts %d reported copies, want 2", down)
	}
	if got := checkedCopies(t, rep); got != 4 {
		t.Fatalf("copies checked = %d, want 4", got)
	}
	if rep.OK() {
		t.Fatal("a cluster with unverifiable copies reported OK")
	}
	if len(rep.SkippedCopies) != 2 {
		t.Fatalf("divergence check skipped %v, want the 2 down copies", rep.SkippedCopies)
	}
	if !strings.Contains(rep.String(), "NOT CHECKED") {
		t.Fatalf("rendered report hides the down copies:\n%v", rep)
	}
}

// TestSchemaLookupSurvivesNodeLoss: the metadata lookup answers from any
// live copy — it used to read node 0's catalog and dereference nil once
// node 0 was killed — and reports (nil, false) when no copy is up.
func TestSchemaLookupSurvivesNodeLoss(t *testing.T) {
	c := openTestCluster(t, 2, 2, 1)
	seedTestCluster(t, c, 2, 1)
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	st, ok := c.Schema("env")
	if !ok || st.Name != "env" || len(st.Tags) != 2 {
		t.Fatalf("Schema with node 0 down = %+v, %v", st, ok)
	}
	if _, ok := c.Schema("nope"); ok {
		t.Fatal("unknown schema found")
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if st, ok := c.Schema("env"); ok || st != nil {
		t.Fatalf("Schema with every node down = %+v, %v; want nil, false", st, ok)
	}
}

// TestPublicClusterPartialResult checks that with R=1 a dead node's
// shard degrades explicitly through the exported error type.
func TestPublicClusterPartialResult(t *testing.T) {
	c := openTestCluster(t, 3, 1, 1)
	seedTestCluster(t, c, 9, 4)

	if err := c.KillNode(2); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT * FROM env_v`)
	if err == nil {
		t.Fatal("expected partial result error with R=1 and a dead node")
	}
	var pe *sqlexec.PartialResultError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PartialResultError: %v", err)
	}
	if len(pe.Shards) == 0 {
		t.Fatalf("partial error names no shards: %v", err)
	}
	if !cluster.Retryable(err) {
		t.Fatal("partial result should be retryable (restart may fix it)")
	}
	if res == nil || len(res.Unavailable) != len(pe.Shards) {
		t.Fatalf("result Unavailable should mirror error shards: %+v vs %+v", res, pe)
	}
	// Parse errors must NOT be retryable.
	if _, err := c.Query(`SELEC nonsense`); err == nil || cluster.Retryable(err) {
		t.Fatalf("parse error should be non-retryable, got %v", err)
	}
}

// TestPublicClusterExec checks relational DDL/DML replication.
func TestPublicClusterExec(t *testing.T) {
	c := openTestCluster(t, 2, 2, 2)
	if err := c.ExecAll(`CREATE TABLE fleet (vid INT, miles INT)`); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecAll(`INSERT INTO fleet VALUES (1, 120)`); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecAll(`INSERT INTO fleet VALUES (2, 80)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT SUM(miles) FROM fleet`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 200 {
		t.Fatalf("SUM(miles) = %d, want 200", got)
	}
}

// diffNorm renders a value for order-insensitive semantic comparison, the
// way the root package's differential harness does (virtual timestamps are
// KindTime, folded ones KindInt — both normalize to the same integer).
func diffNorm(v odh.Value) string {
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

// normRows renders rows through diffNorm and sorts them.
func normRows(rows []odh.Row) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = diffNorm(v)
		}
		out = append(out, strings.Join(cells, "|"))
	}
	sort.Strings(out)
	return out
}

// TestDifferentialClusterVsSingleNode drives the same deterministic
// workload into a single-node historian and a replicated cluster (3
// nodes, R=2, quorum 1) across 1000 rounds (120 under -short) of
// interleaved writes, scheduled kill/restart/catch-up/flush drills, and
// per-round query comparisons drawn from templates covering row scans,
// GROUP BY folds, AVG, HAVING, ORDER BY/LIMIT top-k, and TIME_BUCKET
// roll-ups. Replication, hinted handoff, failover, and the aggregate
// gather are all pure routing — so after sorting, every query must
// return byte-identical normalized rows on both sides. Values are
// integer-valued floats so cross-shard SUM/AVG re-folding stays exact.
func TestDifferentialClusterVsSingleNode(t *testing.T) {
	single, err := odh.Open("", odh.Options{BatchSize: 16, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	c, err := cluster.NewReplicated(cluster.Options{
		Nodes:          3,
		Replicas:       2,
		WriteQuorum:    1,
		ReplicaTimeout: -1, // deterministic: no timeout goroutines
		Seed:           3,
		Node:           odh.Options{BatchSize: 16, GroupSize: 4, PoolPages: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	schema, err := single.CreateSchema(odh.SchemaType{
		Name: "env", IDName: "id", TSName: "ts",
		Tags: []odh.TagDef{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.CreateVirtualTable("D", "env"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSchema(odh.SchemaType{
		Name: "env", IDName: "id", TSName: "ts",
		Tags: []odh.TagDef{{Name: "a"}, {Name: "b"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("D", "env"); err != nil {
		t.Fatal(err)
	}
	cSchema, ok := c.Schema("env")
	if !ok {
		t.Fatal("cluster schema missing")
	}
	const nSources = 10
	for i := 1; i <= nSources; i++ {
		if _, err := single.RegisterSource(odh.DataSource{
			ID: int64(i), SchemaID: schema.ID, Regular: true, IntervalMs: 10,
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterSource(odh.DataSource{
			ID: int64(i), SchemaID: cSchema.ID, Regular: true, IntervalMs: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(20260808))
	var ts int64 = 1000
	writeBoth := func(rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			for src := int64(1); src <= nSources; src++ {
				a, b := float64(rng.Intn(16)), float64(rng.Intn(64))
				if err := single.Writer().WritePoint(src, ts, a, b); err != nil {
					t.Fatal(err)
				}
				if err := c.Write(odh.Point{Source: src, TS: ts, Values: []float64{a, b}}); err != nil {
					t.Fatalf("cluster write (quorum 1 must survive one dead node): %v", err)
				}
			}
			ts += 10
		}
	}

	// Both sides normalize and sort, so scatter order cannot matter.
	singleFetch := func(sql string) []string {
		t.Helper()
		res, err := single.Query(sql)
		if err != nil {
			t.Fatalf("single %s: %v", sql, err)
		}
		rows, err := res.FetchAll()
		if err != nil {
			t.Fatalf("single %s: %v", sql, err)
		}
		return normRows(rows)
	}
	clusterFetch := func(sql string) []string {
		t.Helper()
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("cluster %s: %v", sql, err)
		}
		return normRows(res.Rows)
	}
	// Query templates. Aggregate ORDER BY keys always end with a group
	// key so the order is total and LIMIT selects the same set on both
	// sides; the non-aggregate LIMIT orders by (ts, id), which is unique
	// per row. AVG folds stay bit-exact because per-shard SUMs over
	// integer-valued floats are exact and the final division sees the
	// same operands on both sides.
	templates := func() []string {
		hi := ts
		lo := ts - 300
		return []string{
			fmt.Sprintf(`SELECT id, ts, a, b FROM D WHERE id = %d`, rng.Int63n(nSources)+1),
			fmt.Sprintf(`SELECT id, ts, a, b FROM D WHERE ts BETWEEN %d AND %d`, lo, hi),
			`SELECT id, COUNT(*), SUM(a), MIN(b), MAX(b) FROM D GROUP BY id`,
			`SELECT COUNT(*) FROM D`,
			`SELECT id, AVG(a) FROM D GROUP BY id`,
			fmt.Sprintf(`SELECT id, COUNT(*), AVG(a) FROM D GROUP BY id HAVING COUNT(*) > %d ORDER BY AVG(a) DESC, id LIMIT %d`, rng.Intn(40), 1+rng.Intn(10)),
			fmt.Sprintf(`SELECT TIME_BUCKET(200, ts), COUNT(*), AVG(b) FROM D WHERE id = %d GROUP BY TIME_BUCKET(200, ts) ORDER BY TIME_BUCKET(200, ts) LIMIT 6`, rng.Int63n(nSources)+1),
			fmt.Sprintf(`SELECT id, SUM(a) FROM D GROUP BY id HAVING SUM(a) > %d`, rng.Intn(500)),
			fmt.Sprintf(`SELECT id, ts, a FROM D WHERE ts BETWEEN %d AND %d ORDER BY ts, id LIMIT 20`, lo, hi),
		}
	}
	compareOne := func(stage, q string) {
		t.Helper()
		want := singleFetch(q)
		got := clusterFetch(q)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Fatalf("%s: %s\nsingle (%d rows) != cluster (%d rows)\nsingle:\n%s\ncluster:\n%s",
				stage, q, len(want), len(got), strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}

	// 1000 rounds: each round writes one timestamp column across all
	// sources, runs the kill/restart/catch-up/flush drill on a fixed
	// schedule, and compares one template (picked by the seeded rng)
	// between the two deployments. Kills land at round 250k+50, the
	// matching recovery at 250k+120, so compares run healthy, degraded,
	// and freshly-recovered hundreds of times each; flushes every 97
	// rounds keep both buffered and summarized blocks in play.
	rounds := 1000
	if testing.Short() {
		rounds = 120
	}
	down := -1
	for r := 1; r <= rounds; r++ {
		writeBoth(1)
		switch {
		case r%250 == 50 && down == -1:
			k := (r / 250) % 3
			if err := c.KillNode(k); err != nil {
				t.Fatal(err)
			}
			down = k
		case r%250 == 120 && down != -1:
			if err := c.RestartNode(down); err != nil {
				t.Fatal(err)
			}
			if err := c.CatchUp(down); err != nil {
				t.Fatal(err)
			}
			down = -1
		case r%97 == 0 && down == -1:
			// Flush only while healthy: flushing a cluster with a dead
			// node reports the down copies, which is its own contract.
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		qs := templates()
		compareOne(fmt.Sprintf("round %d", r), qs[rng.Intn(len(qs))])
	}

	// Final recovery: bring everything back, flush, and run every
	// template once more over the fully settled dataset.
	if down != -1 {
		if err := c.RestartNode(down); err != nil {
			t.Fatal(err)
		}
		if err := c.CatchUp(down); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, q := range templates() {
		compareOne("final", q)
	}

	if st := c.Stats(); st.Failovers == 0 || st.HintsReplayed == 0 || st.AggGathers == 0 {
		t.Fatalf("drill exercised no failover/handoff/gather machinery: %+v", st)
	}
	if tot := c.TotalStats(); tot.SummaryHits == 0 {
		t.Fatalf("no summary pushdown on any shard: %+v", tot)
	}
	rep, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.SkippedCopies) != 0 {
		t.Fatalf("cluster not clean after drill:\n%v", rep)
	}
	if got := checkedCopies(t, rep); got != 6 {
		t.Fatalf("copies checked = %d, want 6", got)
	}
}
