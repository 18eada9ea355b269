package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"odh"
	"odh/internal/fault"
	"odh/internal/model"
	"odh/internal/retry"
	"odh/internal/sqlexec"
)

// newFaultCluster builds a 3-node single-copy cluster and returns each
// node's own fault-injectable page file, with a pool small enough that
// flushes must touch it.
func newFaultCluster(t *testing.T) (*Cluster, []*fault.File) {
	t.Helper()
	c := newReplicatedCluster(t, 3, 1, 1)
	ffs := make([]*fault.File, c.Nodes())
	for i := range ffs {
		ffs[i] = c.shards[i][0].pageF
	}
	return c, ffs
}

func TestFlushDegradesPastFailingNode(t *testing.T) {
	c, ffs := newFaultCluster(t)
	if err := c.CreateSchema(model.SchemaType{
		Name: "vehicle",
		Tags: []model.TagDef{{Name: "speed"}, {Name: "fuel"}},
	}); err != nil {
		t.Fatal(err)
	}
	schema, _ := c.Schema("vehicle")
	// Register sources across all nodes (each registration checkpoints),
	// then leave points buffered (batch size 8, 5 points each) so Flush has
	// real work on every node.
	for id := int64(1); id <= 24; id++ {
		if err := c.RegisterSource(model.DataSource{ID: id, SchemaID: schema.ID, Regular: true, IntervalMs: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= 24; id++ {
		for j := int64(0); j < 5; j++ {
			if err := c.Write(model.Point{Source: id, TS: j * 10, Values: []float64{float64(j), 1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	victim := c.shardOf(1) // shard s's only copy lives on node s
	before := make([]int64, c.Nodes())
	for i := range before {
		before[i] = primary(c, i).TotalStats().BatchesFlushed
	}
	ffs[victim].FailWritesAfter(0)
	err := c.Flush()
	if err == nil {
		t.Fatal("expected the failing node to surface an error")
	}
	var ne *NodeError
	if !errors.As(err, &ne) || ne.Node != victim {
		t.Fatalf("Flush error = %v, want NodeError for node %d", err, victim)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("aggregate error %v does not unwrap to the injected fault", err)
	}
	if agg, ok := err.(interface{ Unwrap() []error }); !ok || len(agg.Unwrap()) != 1 {
		t.Fatalf("want exactly one node failure in aggregate, got %v", err)
	}
	// The healthy nodes must have flushed their buffers despite the
	// failure: degradation, not abort.
	for i := 0; i < c.Nodes(); i++ {
		if i == victim {
			continue
		}
		if got := primary(c, i).TotalStats().BatchesFlushed; got <= before[i] {
			t.Fatalf("healthy node %d did not flush (batches %d -> %d)", i, before[i], got)
		}
	}
}

func TestExecAllDegradesPastFailingNode(t *testing.T) {
	c, _ := newFaultCluster(t)
	// Diverge node 1 so the replicated DDL fails there and only there.
	if _, err := primary(c, 1).Query(`CREATE TABLE fleet (id BIGINT, depot VARCHAR(8))`); err != nil {
		t.Fatal(err)
	}
	err := c.ExecAll(`CREATE TABLE fleet (id BIGINT, depot VARCHAR(8))`)
	var ne *NodeError
	if !errors.As(err, &ne) || ne.Node != 1 {
		t.Fatalf("ExecAll error = %v, want NodeError for node 1", err)
	}
	// Nodes 0 and 2 must have applied the statement anyway.
	for _, i := range []int{0, 2} {
		if err := func() error {
			_, qerr := primary(c, i).Query(fmt.Sprintf(`INSERT INTO fleet VALUES (%d, 'north')`, i))
			return qerr
		}(); err != nil {
			t.Fatalf("node %d missing replicated table: %v", i, err)
		}
	}
}

// --- replication, failover, and degraded-operation tests ---

// newReplicatedCluster builds a replicated in-memory cluster tuned for
// deterministic tests: timeouts disabled (no goroutine hand-off), tiny
// backoff so failover rounds are instant.
func newReplicatedCluster(t *testing.T, nodes, replicas, quorum int) *Cluster {
	t.Helper()
	c, err := NewReplicated(Options{
		Nodes:          nodes,
		Replicas:       replicas,
		WriteQuorum:    quorum,
		ReplicaTimeout: -1,
		Retry:          retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		Seed:           42,
		Node:           odh.Options{BatchSize: 8, GroupSize: 4, PoolPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// seedReplicated registers the vehicle schema and nSources sources and
// writes pointsPer points to each (timestamps 1000, 1100, ...).
func seedReplicated(t *testing.T, c *Cluster, nSources, pointsPer int) {
	t.Helper()
	if err := c.CreateSchema(model.SchemaType{
		Name: "vehicle",
		Tags: []model.TagDef{{Name: "speed"}, {Name: "fuel"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("vehicle_v", "vehicle"); err != nil {
		t.Fatal(err)
	}
	schema, _ := c.Schema("vehicle")
	for i := 1; i <= nSources; i++ {
		if err := c.RegisterSource(model.DataSource{
			ID: int64(i), SchemaID: schema.ID, Regular: true, IntervalMs: 100,
		}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < pointsPer; j++ {
			if err := c.Write(model.Point{
				Source: int64(i), TS: int64(1000 + j*100),
				Values: []float64{float64(j), float64(i)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// renderRows flattens a result to one comparable string, row order
// included.
func renderRows(rows []sqlexec.Row) string {
	var b strings.Builder
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFailoverByteIdentical kills a node mid-workload and checks that a
// replicated cluster answers scatter queries byte-identically to its
// healthy self, for both plain scans and the cross-shard aggregate
// gather.
func TestFailoverByteIdentical(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2, 1)
	seedReplicated(t, c, 12, 10)
	queries := []string{
		`SELECT * FROM vehicle_v WHERE timestamp BETWEEN 1000 AND 1500`,
		`SELECT * FROM vehicle_v WHERE id = 7`,
		`SELECT id, COUNT(*), SUM(speed), MIN(fuel), MAX(fuel) FROM vehicle_v GROUP BY id`,
	}
	healthy := make([]string, len(queries))
	for i, q := range queries {
		res, err := c.Query(q)
		if err != nil {
			t.Fatalf("healthy %q: %v", q, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("healthy %q returned no rows", q)
		}
		healthy[i] = renderRows(res.Rows)
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, err := c.Query(q)
		if err != nil {
			t.Fatalf("degraded %q: %v", q, err)
		}
		if got := renderRows(res.Rows); got != healthy[i] {
			t.Fatalf("failover answer differs for %q:\nhealthy:\n%sdegraded:\n%s", q, healthy[i], got)
		}
		if len(res.Unavailable) != 0 {
			t.Fatalf("failover marked shards unavailable: %v", res.Unavailable)
		}
	}
	if c.Stats().Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead node")
	}
}

// TestPartialResultNamesDeadShards checks graceful degradation without
// replication: losing a node yields the surviving shards' rows plus a
// PartialResultError naming exactly the dead shards — never a silent
// short answer.
func TestPartialResultNamesDeadShards(t *testing.T) {
	c := newReplicatedCluster(t, 3, 1, 1)
	seedReplicated(t, c, 12, 5)
	liveRows := 0
	for src := int64(1); src <= 12; src++ {
		if c.shardOf(src) != 1 {
			liveRows += 5
		}
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT * FROM vehicle_v WHERE timestamp BETWEEN 1000 AND 2000`)
	if err == nil {
		t.Fatal("expected a partial-result error with a dead unreplicated shard")
	}
	var pe *sqlexec.PartialResultError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a PartialResultError", err)
	}
	if len(pe.Shards) != 1 || pe.Shards[0] != 1 {
		t.Fatalf("partial error names shards %v, want [1]", pe.Shards)
	}
	if len(res.Unavailable) != 1 || res.Unavailable[0] != 1 {
		t.Fatalf("result marks shards %v unavailable, want [1]", res.Unavailable)
	}
	if len(res.Rows) != liveRows {
		t.Fatalf("partial result has %d rows, want %d from surviving shards", len(res.Rows), liveRows)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("partial error %v does not unwrap to ErrNodeDown", err)
	}
	if c.Stats().PartialQueries != 1 {
		t.Fatalf("PartialQueries = %d, want 1", c.Stats().PartialQueries)
	}
}

// TestWriteQuorumFailure checks that writes below quorum fail with a
// retryable ErrNoQuorum and recover once the node returns.
func TestWriteQuorumFailure(t *testing.T) {
	c := newReplicatedCluster(t, 2, 2, 2)
	seedReplicated(t, c, 2, 1)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	err := c.Write(model.Point{Source: 1, TS: 5000, Values: []float64{1, 1}})
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("write with dead quorum member = %v, want ErrNoQuorum", err)
	}
	if !Retryable(err) {
		t.Fatalf("quorum failure %v is not classified retryable", err)
	}
	if c.Stats().WriteQuorumFailures == 0 {
		t.Fatal("quorum failure not counted")
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CatchUp(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(model.Point{Source: 1, TS: 5100, Values: []float64{1, 1}}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestHintedHandoffRoundTrip kills a node, keeps writing (quorum 1),
// restarts it, and checks that hint replay converges the replicas to
// byte-identical contents with the staleness window enforced in between.
func TestHintedHandoffRoundTrip(t *testing.T) {
	c := newReplicatedCluster(t, 2, 2, 1)
	seedReplicated(t, c, 4, 5)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	for src := int64(1); src <= 4; src++ {
		for j := 0; j < 5; j++ {
			if err := c.Write(model.Point{
				Source: src, TS: int64(3000 + j*100), Values: []float64{9, float64(src)},
			}); err != nil {
				t.Fatalf("write during outage: %v", err)
			}
		}
	}
	if c.Stats().HintsQueued == 0 {
		t.Fatal("no hints queued for the dead node's copies")
	}
	// Queries during the outage still see everything (failover to the
	// surviving copies).
	res, err := c.Query(`SELECT * FROM vehicle_v WHERE timestamp BETWEEN 1000 AND 4000`)
	if err != nil {
		t.Fatalf("query during outage: %v", err)
	}
	if len(res.Rows) != 4*10 {
		t.Fatalf("outage query rows = %d, want 40", len(res.Rows))
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	// Restarted copies with pending hints must be excluded from reads.
	stale := 0
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host == 1 && errors.Is(c.readable(cp), ErrReplicaStale) {
			stale++
		}
		return nil
	})
	if stale == 0 {
		t.Fatal("no restarted copy is marked stale despite pending hints")
	}
	if err := c.CatchUp(1); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.HintsReplayed+st.HintsDeduped != st.HintsQueued {
		t.Fatalf("hints queued %d != replayed %d + deduped %d", st.HintsQueued, st.HintsReplayed, st.HintsDeduped)
	}
	divergent, notes, err := c.VerifyReplicas()
	if err != nil {
		t.Fatal(err)
	}
	if len(divergent) != 0 {
		t.Fatalf("replicas diverged after catch-up: %v", divergent)
	}
	if len(notes) != 0 {
		t.Fatalf("copies still skipped after catch-up: %v", notes)
	}
}

// TestCatchUpKeepsRepeatedTimestamps is the hinted-handoff half of the
// replay-dedup regression: an irregular source reports three samples at
// one timestamp while a replica is down. Catch-up must apply all three —
// the dedup may skip only what the copy held before the replay began, and
// the first replayed sample at ts = 100 used to make the next two look
// already applied (acked rows lost on that copy, nil error).
func TestCatchUpKeepsRepeatedTimestamps(t *testing.T) {
	c := newReplicatedCluster(t, 2, 2, 1)
	if err := c.CreateSchema(model.SchemaType{Name: "vehicle", Tags: []model.TagDef{{Name: "speed"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("vehicle_v", "vehicle"); err != nil {
		t.Fatal(err)
	}
	schema, _ := c.Schema("vehicle")
	if err := c.RegisterSource(model.DataSource{ID: 1, SchemaID: schema.ID, Regular: false, IntervalMs: 10}); err != nil {
		t.Fatal(err)
	}
	write := func(tss ...int64) {
		t.Helper()
		for i, ts := range tss {
			if err := c.Write(model.Point{Source: 1, TS: ts, Values: []float64{float64(ts) + float64(i)/10}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(10, 20) // on both copies before the outage
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	write(50, 100, 100, 100, 150) // hinted
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CatchUp(1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.HintsReplayed != 5 || st.HintsDeduped != 0 {
		t.Fatalf("hints replayed %d, deduped %d; want 5 and 0", st.HintsReplayed, st.HintsDeduped)
	}
	if divergent, _, err := c.VerifyReplicas(); err != nil || len(divergent) != 0 {
		t.Fatalf("replicas diverged after catch-up: %v (%v)", divergent, err)
	}
	// Read from the caught-up node alone.
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT timestamp, speed FROM vehicle_v WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(res.Rows), "10|10\n20|20.1\n50|50\n100|100.1\n100|100.2\n100|100.3\n150|150.4\n"; got != want {
		t.Fatalf("caught-up copy holds\n%swant\n%s", got, want)
	}
}

// TestCatchUpBatchesHints: a hint log is N one-point frames, and catch-up
// re-ingests them a few thousand at a time — the copy's recovery log takes
// a group commit per batch, not per hint — while still skipping the hint
// of a write the copy had taken.
func TestCatchUpBatchesHints(t *testing.T) {
	const n = 600
	c := newReplicatedCluster(t, 2, 2, 1)
	if err := c.CreateSchema(model.SchemaType{Name: "vehicle", Tags: []model.TagDef{{Name: "speed"}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("vehicle_v", "vehicle"); err != nil {
		t.Fatal(err)
	}
	schema, _ := c.Schema("vehicle")
	if err := c.RegisterSource(model.DataSource{ID: 1, SchemaID: schema.ID, Regular: false, IntervalMs: 10}); err != nil {
		t.Fatal(err)
	}
	landed := model.Point{Source: 1, TS: 5, Values: []float64{5}}
	if err := c.Write(landed); err != nil { // on both copies
		t.Fatal(err)
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Write(model.Point{Source: 1, TS: int64(10 + i), Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	var behind *shardCopy
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host == 1 && cp.shard == c.shardOf(1) {
			behind = cp
		}
		return nil
	})
	c.hint(behind, landed) // as after a write that timed out at the coordinator and landed anyway
	before := behind.h.Load().TotalStats().WALGroupCommits
	if err := c.CatchUp(1); err != nil {
		t.Fatal(err)
	}
	if got := behind.h.Load().TotalStats().WALGroupCommits - before; got > n/100+1 {
		t.Fatalf("catch-up over %d hints took %d group commits on the copy's log, want at most %d", n+1, got, n/100+1)
	}
	if st := c.Stats(); st.HintsReplayed != n || st.HintsDeduped != 1 {
		t.Fatalf("hints replayed %d, deduped %d; want %d and 1", st.HintsReplayed, st.HintsDeduped, n)
	}
	if divergent, notes, err := c.VerifyReplicas(); err != nil || len(divergent) != 0 || len(notes) != 0 {
		t.Fatalf("after catch-up: divergent %v, skipped %v, %v", divergent, notes, err)
	}
}

// TestLostHintKeepsCopyStale: a hint that cannot be queued used to be
// dropped and the copy left readable — a replica that missed an acked
// write and answered reads short, with no error anywhere. The copy must
// stay out of reads, through a catch-up too: nothing remembers what it
// missed.
func TestLostHintKeepsCopyStale(t *testing.T) {
	c, err := NewReplicated(Options{
		Nodes: 2, Replicas: 2, WriteQuorum: 1, Seed: 42,
		ReplicaTimeout: 20 * time.Millisecond,
		Retry:          retry.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		Node:           odh.Options{BatchSize: 8, GroupSize: 4, PoolPages: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	seedReplicated(t, c, 1, 3)
	var behind *shardCopy
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host == 1 && cp.shard == c.shardOf(1) {
			behind = cp
		}
		return nil
	})
	behind.hints.Close() // the hint log dies under the coordinator
	if err := c.StallNode(1, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(model.Point{Source: 1, TS: 5000, Values: []float64{1, 1}}); err != nil {
		t.Fatalf("write with one stalled replica at quorum 1: %v", err)
	}
	if err := c.HealNode(1); err != nil {
		t.Fatal(err)
	}
	for behind.inflight.Load() > 0 { // the abandoned write finishes its stall
		time.Sleep(time.Millisecond)
	}
	if c.Stats().HintsQueued != 0 {
		t.Fatal("a hint was counted as queued on a closed hint log")
	}
	if err := c.readable(behind); !errors.Is(err, ErrReplicaStale) {
		t.Fatalf("copy that lost a hint is readable (%v): it may answer short", err)
	}
	if err := c.CatchUp(1); !errors.Is(err, ErrReplicaStale) {
		t.Fatalf("CatchUp over a lost hint = %v, want it to report the copy still stale", err)
	}
	if err := c.readable(behind); !errors.Is(err, ErrReplicaStale) {
		t.Fatalf("catch-up made a copy that lost a hint readable (%v)", err)
	}
	// The healthy copy answers in full; without it the shard is reported
	// missing, not answered short by the stale copy.
	const q = `SELECT * FROM vehicle_v WHERE id = 1`
	if res, err := c.Query(q); err != nil || len(res.Rows) != 4 {
		t.Fatalf("query with the healthy copy up: %d rows, %v; want 4", len(res.Rows), err)
	}
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	var partial *sqlexec.PartialResultError
	if _, err := c.Query(q); !errors.As(err, &partial) {
		t.Fatalf("query with only the stale copy left = %v, want a partial-result error", err)
	}
}

// TestNodeLossMidQuery makes a scatter read die partway through one
// copy's scan: the node is restarted so its blob pages are out of the
// buffer pool, then a read fault is armed so the scan starts cleanly and
// dies at its first blob-page load. The shard must fail over to the
// other replica and the answer must match the healthy one byte for byte.
func TestNodeLossMidQuery(t *testing.T) {
	c := newReplicatedCluster(t, 3, 2, 1)
	seedReplicated(t, c, 12, 40)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT * FROM vehicle_v WHERE timestamp BETWEEN 1000 AND 5000`
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	healthy := renderRows(res.Rows)
	// Cold-start node 0 so shard 0's preferred copy must hit the file,
	// then let the first few reads through: the scan starts, then dies.
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	// Restart installed a fresh fault wrapper; every read from here on
	// fails. Planning and catalog lookups ride the warmed pool, so the
	// query begins normally and dies at the first blob-page load —
	// genuinely mid-scan.
	cp := c.shards[0][0]
	cp.pageF.FailReadsAfter(0)
	res, err = c.Query(q)
	if err != nil {
		t.Fatalf("mid-query fault not failed over: %v", err)
	}
	if got := renderRows(res.Rows); got != healthy {
		t.Fatalf("mid-query failover differs:\nhealthy:\n%sgot:\n%s", healthy, got)
	}
	if c.Stats().Failovers == 0 {
		t.Fatal("no failover recorded for the faulted copy")
	}
}

// TestAggGatherRejectsNonComposable pins the error surface of the
// aggregate gather: shapes the single-node engine itself rejects (a
// select item that is neither an aggregate nor a GROUP BY key, HAVING
// referencing an aggregate outside the select list) must fail with the
// engine's own non-retryable error rather than silently mis-merging.
func TestAggGatherRejectsNonComposable(t *testing.T) {
	c := newReplicatedCluster(t, 2, 1, 1)
	seedReplicated(t, c, 4, 3)
	for _, q := range []string{
		`SELECT speed, COUNT(*) FROM vehicle_v GROUP BY id`,
		`SELECT id FROM vehicle_v GROUP BY id HAVING COUNT(*) > 1`,
		`SELECT id, COUNT(*) FROM vehicle_v GROUP BY id ORDER BY SUM(speed)`,
	} {
		if _, err := c.Query(q); err == nil {
			t.Fatalf("non-composable %q accepted", q)
		} else if Retryable(err) {
			t.Fatalf("plan rejection %q misclassified as retryable: %v", q, err)
		}
	}
	// Aggregates over replicated relational tables route to one shard and
	// need no decomposition — ORDER BY and AVG are fine there.
	if err := c.ExecAll(`CREATE TABLE fleet (id BIGINT, miles BIGINT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := c.ExecAll(fmt.Sprintf(`INSERT INTO fleet VALUES (%d, %d)`, i, i*100)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Query(`SELECT AVG(miles) FROM fleet`)
	if err != nil {
		t.Fatalf("relational aggregate: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 250 {
		t.Fatalf("relational AVG = %v, want 250", res.Rows)
	}
}

// TestFsckFlushFailureLosesNoAckedRow fails the page device (writes and
// syncs) under one node of an R=2 cluster, runs the cluster fsck over it,
// then crashes and recovers that node. The fsck's checkpoint is the
// historian's own Flush — pages commit before the recovery log recycles —
// so a failed commit leaves the log intact and the restart replays every
// acked row. The cluster's hand-rolled fsck used to flush the buffers
// (recycling the log) before the page commit, so the rows since the copy's
// last checkpoint were in neither place once the commit failed.
func TestFsckFlushFailureLosesNoAckedRow(t *testing.T) {
	c := newReplicatedCluster(t, 2, 2, 1)
	seedReplicated(t, c, 4, 5)
	for src := int64(1); src <= 4; src++ {
		for j := 0; j < 5; j++ { // acked on both copies, not yet checkpointed
			if err := c.Write(model.Point{Source: src, TS: int64(3000 + j*100), Values: []float64{7, float64(src)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const q = `SELECT * FROM vehicle_v`
	res, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("healthy rows = %d, want 40", len(res.Rows))
	}
	acked := renderSorted(res.Rows)

	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host == 1 {
			cp.pageF.FailWritesAfter(0)
			cp.pageF.FailSyncsAfter(0)
		}
		return nil
	})
	for _, ci := range c.VerifyCopies() {
		if ci.Host == 1 && !errors.Is(ci.Err, fault.ErrInjected) {
			t.Fatalf("fsck of shard %d copy %d over a failing device: err=%v report=%v, want the injected fault", ci.Shard, ci.Replica, ci.Err, ci.Report)
		}
		if ci.Host == 0 && !ci.OK() {
			t.Fatalf("healthy shard %d copy %d: err=%v report=%v", ci.Shard, ci.Replica, ci.Err, ci.Report)
		}
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CatchUp(1); err != nil {
		t.Fatal(err)
	}
	divergent, notes, err := c.VerifyReplicas()
	if err != nil || len(divergent) != 0 || len(notes) != 0 {
		t.Fatalf("after recovery: divergent=%v skipped=%v err=%v", divergent, notes, err)
	}
	// Node 1 alone must hold every acked row.
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSorted(res.Rows); got != acked {
		t.Fatalf("recovered node lost acked rows: has %d of 40\ngot:\n%s\nwant:\n%s", len(res.Rows), got, acked)
	}
}

// TestCloseFailureKeepsRecoveryLog is the same ordering through
// Cluster.Close: a copy whose page commit fails at close keeps its log, so
// reopening its files finds every acked row.
func TestCloseFailureKeepsRecoveryLog(t *testing.T) {
	c := newReplicatedCluster(t, 1, 1, 1)
	seedReplicated(t, c, 2, 5)
	cp := c.shards[0][0]
	cp.pageF.FailWritesAfter(0)
	cp.pageF.FailSyncsAfter(0)
	if err := c.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close over a failing device = %v, want the injected fault", err)
	}
	h, err := odh.Open("", odh.Options{BatchSize: 8, GroupSize: 4, PoolPages: 16,
		Backing: fault.Wrap(cp.pageBack), WALBacking: fault.Wrap(cp.walBack)})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	res, err := h.Query(`SELECT COUNT(*) FROM vehicle_v`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.FetchAll()
	if err != nil || rows[0][0].AsInt() != 10 {
		t.Fatalf("reopened copy holds %v rows (err %v), want 10", rows, err)
	}
}
