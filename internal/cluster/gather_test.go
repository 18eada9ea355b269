package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"odh"
	"odh/internal/metrics"
	"odh/internal/model"
	"odh/internal/retry"
	"odh/internal/sqlexec"
)

// refNode builds a single-node historian with the same storage knobs as
// newReplicatedCluster's copies: the ground truth a distributed
// aggregation must match byte-for-byte.
func refNode(t *testing.T) *odh.Historian {
	t.Helper()
	h, err := odh.Open("", odh.Options{BatchSize: 8, GroupSize: 4, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// seedGatherPair writes an identical skewed workload into the cluster
// and the reference node: per-source point counts differ (so aggregate
// ORDER BY has no ties), source 9 exists but has zero points (empty
// group), and values vary per source and per point.
func seedGatherPair(t *testing.T, c *Cluster, ref *odh.Historian) {
	t.Helper()
	st := model.SchemaType{
		Name: "vehicle",
		Tags: []model.TagDef{{Name: "speed"}, {Name: "fuel"}},
	}
	if err := c.CreateSchema(st); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("vehicle_v", "vehicle"); err != nil {
		t.Fatal(err)
	}
	schema, _ := ref.CreateSchema(st)
	if err := ref.CreateVirtualTable("vehicle_v", "vehicle"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 9; i++ {
		ds := model.DataSource{ID: int64(i), SchemaID: schema.ID, Regular: true, IntervalMs: 100}
		if err := c.RegisterSource(ds); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.RegisterSource(ds); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			continue // registered, never written: the empty group
		}
		for j := 0; j < 2+3*i; j++ {
			p := model.Point{
				Source: int64(i), TS: int64(1000 + j*100),
				Values: []float64{float64(j + i), float64(i)},
			}
			if err := c.Write(p); err != nil {
				t.Fatal(err)
			}
			if err := ref.Writer().Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
}

// renderSorted renders rows one-per-line and sorts the lines: cluster
// folds emit group-key order while the single node emits first-arrival
// order, so only membership (and, under ORDER BY+LIMIT, the selected
// set) is compared — with total-order ORDER BY keys that is exact.
func renderSorted(rows []sqlexec.Row) string {
	lines := strings.Split(strings.TrimRight(renderRows(rows), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestTotalStatsSumsEveryLiveCopy: the cluster roll-up is, counter by
// counter, the sum of every live copy's TotalStats — the store counters
// HistorianStats embeds included — with PoolHitRate recomputed from the
// summed hits and misses, before and after a node goes down.
func TestTotalStatsSumsEveryLiveCopy(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2, 1)
	seedGatherPair(t, c, refNode(t))
	if _, err := c.Query(`SELECT id, COUNT(*), SUM(speed) FROM vehicle_v GROUP BY id`); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		want := map[string]any{}
		copies := 0
		c.forEachCopy(func(cp *shardCopy) error {
			if h := c.live(cp); h != nil {
				copies++
				metrics.Walk(h.TotalStats(), func(name string, v any) {
					if n, ok := v.(int64); ok {
						sum, _ := want[name].(int64)
						want[name] = sum + n
					}
				})
			}
			return nil
		})
		hits, misses := want["pool_hits"].(int64), want["pool_misses"].(int64)
		want["pool_hit_rate"] = float64(hits) / float64(hits+misses)
		seen := 0
		metrics.Walk(c.TotalStats(), func(name string, v any) {
			seen++
			if v != want[name] {
				t.Errorf("%s: %s = %v, the %d live copies sum to %v", when, name, v, copies, want[name])
			}
		})
		if seen != len(want) {
			t.Errorf("%s: the roll-up has %d counters, a copy %d", when, seen, len(want))
		}
		for _, name := range []string{"points_written", "summary_hits", "pool_hits"} {
			if n, _ := want[name].(int64); n == 0 {
				t.Errorf("%s: no copy counted %s", when, name)
			}
		}
	}
	check("all up")
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	check("node 1 down")
}

// TestAggGatherComposesVsSingleNode is the deterministic gather suite:
// every composable shape — AVG with zero-row shards, HAVING that
// eliminates every group, ORDER BY on the aggregate with LIMIT under
// and over the group count, single- and multi-bucket TIME_BUCKET —
// answered by an R=2 cluster must match the single-node answer.
func TestAggGatherComposesVsSingleNode(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2, 1)
	ref := refNode(t)
	seedGatherPair(t, c, ref)

	queries := []string{
		`SELECT id, AVG(speed) FROM vehicle_v GROUP BY id`,
		// WHERE narrows to two sources: every other shard's partials are
		// empty, and their NULL SUM / zero COUNT must not poison AVG.
		`SELECT id, AVG(speed), COUNT(*) FROM vehicle_v WHERE id <= 2 GROUP BY id`,
		// Grand total over zero rows: exactly one row, NULL AVG, COUNT 0.
		`SELECT COUNT(*), AVG(speed), MIN(speed) FROM vehicle_v WHERE id = 9`,
		// HAVING that eliminates every group.
		`SELECT id, COUNT(*) FROM vehicle_v GROUP BY id HAVING COUNT(*) > 1000`,
		// HAVING keeping a strict subset.
		`SELECT id, COUNT(*), SUM(speed) FROM vehicle_v GROUP BY id HAVING COUNT(*) > 10`,
		// ORDER BY the aggregate, LIMIT below the group count (ties are
		// impossible: per-source counts all differ).
		`SELECT id, SUM(speed) FROM vehicle_v GROUP BY id ORDER BY SUM(speed) DESC, id LIMIT 3`,
		// LIMIT above the group count.
		`SELECT id, SUM(speed) FROM vehicle_v GROUP BY id ORDER BY SUM(speed) DESC, id LIMIT 100`,
		// Single-bucket TIME_BUCKET: every timestamp folds into one group.
		`SELECT TIME_BUCKET(1000000, timestamp), COUNT(*), AVG(speed) FROM vehicle_v GROUP BY TIME_BUCKET(1000000, timestamp)`,
		// Multi-bucket TIME_BUCKET with ORDER BY and LIMIT on the bucket.
		`SELECT TIME_BUCKET(300, timestamp), COUNT(*), SUM(fuel), AVG(speed) FROM vehicle_v GROUP BY TIME_BUCKET(300, timestamp) ORDER BY TIME_BUCKET(300, timestamp) LIMIT 4`,
		// Hidden group key: id defines groups but is projected away.
		`SELECT COUNT(*), SUM(speed) FROM vehicle_v GROUP BY id ORDER BY COUNT(*) DESC LIMIT 2`,
		// MIN/MAX fold plus HAVING on a key-ordered subset.
		`SELECT id, MIN(speed), MAX(speed) FROM vehicle_v GROUP BY id HAVING MIN(speed) > 3 ORDER BY id`,
	}
	for _, q := range queries {
		want := refFetch(t, ref, q)
		res, err := c.Query(q)
		if err != nil {
			t.Fatalf("cluster %q: %v", q, err)
		}
		if got := renderSorted(res.Rows); got != want {
			t.Fatalf("gather differs for %q\ncluster:\n%s\nsingle node:\n%s", q, got, want)
		}
	}

	// The per-shard partial queries keep the aggregate-only shape, so
	// they ride the storage summary pushdown — visible cluster-wide.
	ts := c.TotalStats()
	if ts.SummaryHits == 0 || ts.BytesNotDecoded == 0 {
		t.Fatalf("aggregate scatter did not ride the summary pushdown: %+v", ts)
	}
	if c.Stats().AggGathers == 0 {
		t.Fatal("no aggregate gathers counted")
	}
}

func refFetch(t *testing.T, ref *odh.Historian, q string) string {
	t.Helper()
	res, err := ref.Query(q)
	if err != nil {
		t.Fatalf("single node %q: %v", q, err)
	}
	rows, err := res.FetchAll()
	if err != nil {
		t.Fatalf("single node fetch %q: %v", q, err)
	}
	return renderSorted(rows)
}

// TestAggGatherSurvivesKillRecover runs the composable shapes through a
// kill/recover drill on R=2: answers stay byte-identical to the healthy
// cluster while a node is down and after it catches back up.
func TestAggGatherSurvivesKillRecover(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2, 1)
	ref := refNode(t)
	seedGatherPair(t, c, ref)
	queries := []string{
		`SELECT id, AVG(speed) FROM vehicle_v GROUP BY id`,
		`SELECT id, COUNT(*), AVG(speed) FROM vehicle_v GROUP BY id HAVING COUNT(*) > 10 ORDER BY AVG(speed) DESC, id LIMIT 3`,
		`SELECT TIME_BUCKET(300, timestamp), SUM(speed) FROM vehicle_v GROUP BY TIME_BUCKET(300, timestamp) ORDER BY TIME_BUCKET(300, timestamp)`,
	}
	healthy := make([]string, len(queries))
	for i, q := range queries {
		res, err := c.Query(q)
		if err != nil {
			t.Fatalf("healthy %q: %v", q, err)
		}
		healthy[i] = renderSorted(res.Rows)
		if want := refFetch(t, ref, q); healthy[i] != want {
			t.Fatalf("healthy gather differs for %q\ncluster:\n%s\nsingle:\n%s", q, healthy[i], want)
		}
	}
	for _, stage := range []string{"degraded", "recovered"} {
		if stage == "degraded" {
			if err := c.KillNode(1); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := c.RestartNode(1); err != nil {
				t.Fatal(err)
			}
			if err := c.CatchUp(1); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range queries {
			res, err := c.Query(q)
			if err != nil {
				t.Fatalf("%s %q: %v", stage, q, err)
			}
			if got := renderSorted(res.Rows); got != healthy[i] {
				t.Fatalf("%s gather differs for %q\ngot:\n%s\nwant:\n%s", stage, q, got, healthy[i])
			}
		}
	}
	if c.Stats().Failovers == 0 {
		t.Fatal("degraded queries recorded no failovers")
	}
}

// TestAggregatePartialWithholdsRows is the R=1 regression: an aggregate
// over a shard with no live copy must return a PartialResultError with
// NO rows — a fold over the survivors is a wrong total, not a partial
// answer. Plain row queries keep the survivors' rows alongside the
// error, and relational queries fall through to another shard entirely.
func TestAggregatePartialWithholdsRows(t *testing.T) {
	c := newReplicatedCluster(t, 3, 1, 1)
	seedReplicated(t, c, 6, 4)
	if err := c.ExecAll(`CREATE TABLE fleet (id BIGINT, miles BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecAll(`INSERT INTO fleet VALUES (1, 100)`); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT id, COUNT(*), AVG(speed) FROM vehicle_v GROUP BY id`,
		`SELECT COUNT(*) FROM vehicle_v`,
		`SELECT id, SUM(speed) FROM vehicle_v GROUP BY id ORDER BY SUM(speed) LIMIT 2`,
	} {
		res, err := c.Query(q)
		var pre *sqlexec.PartialResultError
		if !errors.As(err, &pre) {
			t.Fatalf("aggregate %q over dead shard: err = %v, want PartialResultError", q, err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("aggregate %q over dead shard leaked %d folded rows:\n%s", q, len(res.Rows), renderRows(res.Rows))
		}
		if len(res.Unavailable) == 0 {
			t.Fatalf("aggregate %q: no unavailable shards named", q)
		}
	}
	// Plain row scatter keeps the surviving shards' rows.
	res, err := c.Query(`SELECT * FROM vehicle_v`)
	var pre *sqlexec.PartialResultError
	if !errors.As(err, &pre) {
		t.Fatalf("row query over dead shard: err = %v, want PartialResultError", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("row query over dead shard dropped the surviving shards' rows")
	}
	// Relational data is replicated on every copy: the dead first shard
	// must not degrade the answer — another shard serves it completely.
	res, err = c.Query(`SELECT COUNT(*), SUM(miles) FROM fleet`)
	if err != nil {
		t.Fatalf("relational query with dead node: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsInt() != 100 {
		t.Fatalf("relational fallthrough answer wrong: %s", renderRows(res.Rows))
	}
}

// TestScatterContextCancellation pins the ctx plumbing: a stalled node
// must not hold a cancelled query past its deadline, Options.QueryTimeout
// bounds deadline-less queries, and the goroutine-per-replica path
// drains after cancellation (no leaks under -race).
func TestScatterContextCancellation(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2, 1)
	seedReplicated(t, c, 6, 4)

	// Synchronous path (ReplicaTimeout < 0): the stall gate itself must
	// observe ctx.
	if err := c.StallNode(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Heal before the cluster's Close cleanup even when an assertion
	// fails: Close flushes through the stalled fault files.
	t.Cleanup(func() { c.HealNode(0) })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.QueryContext(ctx, `SELECT id, COUNT(*) FROM vehicle_v GROUP BY id`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled scatter: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled query held for %v by a stalled node", elapsed)
	}
	if err := c.HealNode(0); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryContext(context.Background(), `SELECT id, COUNT(*) FROM vehicle_v GROUP BY id`)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("healed scatter: rows=%d err=%v", len(res.Rows), err)
	}
}

func TestQueryTimeoutOptionBoundsScatter(t *testing.T) {
	c, err := NewReplicated(Options{
		Nodes: 3, Replicas: 2, WriteQuorum: 1,
		ReplicaTimeout: -1,
		Retry:          retry.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		Seed:           42,
		QueryTimeout:   50 * time.Millisecond,
		Node:           odh.Options{BatchSize: 8, GroupSize: 4, PoolPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	seedReplicated(t, c, 6, 4)
	if err := c.StallNode(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.HealNode(1) })
	start := time.Now()
	_, qerr := c.Query(`SELECT id, AVG(speed) FROM vehicle_v GROUP BY id`)
	if !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("QueryTimeout: err = %v, want DeadlineExceeded", qerr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("QueryTimeout query held for %v", elapsed)
	}
}

// TestScatterCancelNoGoroutineLeak exercises the goroutine-per-replica
// timeout path (ReplicaTimeout > 0) against a stalled node and checks
// the abandoned workers drain: they run under a cancelled child context,
// so the stall gate and the engine both release them promptly.
func TestScatterCancelNoGoroutineLeak(t *testing.T) {
	c, err := NewReplicated(Options{
		Nodes: 3, Replicas: 2, WriteQuorum: 1,
		ReplicaTimeout: 20 * time.Millisecond,
		Retry:          retry.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		Seed:           42,
		Node:           odh.Options{BatchSize: 8, GroupSize: 4, PoolPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	seedReplicated(t, c, 6, 4)
	if err := c.StallNode(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.HealNode(0) })
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		// Deadline below ReplicaTimeout: shard 0's stalled copy cannot
		// even fail over before ctx dies, so every query must abort
		// (and abandon a worker goroutine blocked in the stall gate).
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, qerr := c.QueryContext(ctx, fmt.Sprintf(`SELECT id, SUM(speed) FROM vehicle_v WHERE id <= %d GROUP BY id`, i+1))
		cancel()
		if qerr == nil {
			t.Fatalf("query %d against a 10s stall finished inside its 10ms deadline", i)
		}
	}
	// The workers wake as soon as their child contexts die; give the
	// scheduler a grace window rather than a fixed sleep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScatterAggBytesPinned pins the distributed summary fold: three
// aggregate scatter queries over a 3-node R=2 cluster holding 8 sources x
// 2500 points fold entirely from blob-header summaries on every shard —
// not one payload byte decodes — while the same queries with the storage
// pushdown off decode exactly the bytes the folds avoided. The counts are
// deterministic; they move only with the blob format, the fold
// eligibility rules or the byte accounting. The pushdown is a per-copy
// odh.Options field like any other, so each side is its own cluster.
func TestScatterAggBytesPinned(t *testing.T) {
	run := func(pushdown bool) (decoded, notDecoded, folds int64) {
		c, err := NewReplicated(Options{
			Nodes: 3, Replicas: 2, WriteQuorum: 1, ReplicaTimeout: -1, Seed: 42,
			Node: odh.Options{BatchSize: 64, GroupSize: 8, PoolPages: 64, DisableAggPushdown: !pushdown},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.CreateSchema(model.SchemaType{
			Name: "bench", IDName: "id", TSName: "ts",
			Tags: []model.TagDef{{Name: "v0"}, {Name: "v1"}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateVirtualTable("V", "bench"); err != nil {
			t.Fatal(err)
		}
		schema, _ := c.Schema("bench")
		for i := int64(1); i <= 8; i++ {
			if err := c.RegisterSource(model.DataSource{ID: i, SchemaID: schema.ID, Regular: true, IntervalMs: 10}); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 2500; j++ {
			for i := int64(1); i <= 8; i++ {
				p := model.Point{Source: i, TS: 1000 + int64(j)*10, Values: []float64{float64(j % 100), float64(i)}}
				if err := c.Write(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		before := c.TotalStats()
		for _, q := range []string{
			`SELECT id, COUNT(*), SUM(v0), MIN(v0), MAX(v0), AVG(v1) FROM V GROUP BY id`,
			`SELECT TIME_BUCKET(100000, ts), COUNT(*), MAX(v0) FROM V GROUP BY TIME_BUCKET(100000, ts) ORDER BY TIME_BUCKET(100000, ts) LIMIT 8`,
			`SELECT id, COUNT(*), AVG(v0) FROM V GROUP BY id HAVING COUNT(*) > 100 ORDER BY AVG(v0) DESC, id LIMIT 4`,
		} {
			res, err := c.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			decoded += res.BlobBytes
		}
		after := c.TotalStats()
		return decoded, after.BytesNotDecoded - before.BytesNotDecoded, after.SummaryHits - before.SummaryHits
	}
	if decoded, notDecoded, folds := run(true); decoded != 0 || notDecoded != 242712 || folds != 960 {
		t.Fatalf("pushdown: decoded=%d notDecoded=%d folds=%d, want 0 242712 960", decoded, notDecoded, folds)
	}
	if decoded, notDecoded, folds := run(false); decoded != 242712 || notDecoded != 0 || folds != 0 {
		t.Fatalf("decode: decoded=%d notDecoded=%d folds=%d, want 242712 0 0", decoded, notDecoded, folds)
	}
}
