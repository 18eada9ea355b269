package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"odh"
	"odh/internal/model"
	"odh/internal/retry"
	"odh/internal/sqlexec"
)

// TestChaosSoak runs concurrent writers and queriers against a
// replicated cluster while a chaos goroutine kills, restarts, stalls,
// heals, and catches up nodes, then verifies the two invariants the
// replication layer promises:
//
//  1. No acked write is lost: after every node is recovered and caught
//     up, a full scan holds every point the writers saw acknowledged.
//  2. No silent partial answers: every query during the chaos either
//     succeeded, failed with an explicit *sqlexec.PartialResultError
//     naming the unavailable shards, or failed with a Retryable error.
//     Aggregate queries (GROUP BY folds with AVG/HAVING/ORDER BY/LIMIT)
//     additionally carry ZERO rows when partial — a fold missing a
//     shard must never surface as a smaller-but-plausible total — and
//     complete folds must satisfy the algebraic invariants the payload
//     formula implies.
//
// The run length comes from ODH_CHAOS_BUDGET (default 2s; CI uses a
// longer budget); the schedule itself is seeded and the chaos actions
// serialize through one goroutine, so a failure reproduces under the
// same budget on the same build.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	budget := 2 * time.Second
	if env := os.Getenv("ODH_CHAOS_BUDGET"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad ODH_CHAOS_BUDGET %q: %v", env, err)
		}
		budget = d
	}
	const (
		nodes    = 3
		replicas = 2
		quorum   = 1
		nSources = 12
		nWriters = 4
		nQueries = 2
	)
	c, err := NewReplicated(Options{
		Nodes:          nodes,
		Replicas:       replicas,
		WriteQuorum:    quorum,
		ReplicaTimeout: time.Second,
		Retry:          retry.Policy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Seed:           7,
		Node:           odh.Options{BatchSize: 16, GroupSize: 4, PoolPages: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.CreateSchema(model.SchemaType{
		Name: "meter",
		Tags: []model.TagDef{{Name: "reading"}, {Name: "station"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateVirtualTable("meter_v", "meter"); err != nil {
		t.Fatal(err)
	}
	schema, _ := c.Schema("meter")
	for i := 1; i <= nSources; i++ {
		if err := c.RegisterSource(model.DataSource{
			ID: int64(i), SchemaID: schema.ID, Regular: true, IntervalMs: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// chaosValue is the deterministic payload formula; queriers check
	// every row they receive against it, so a torn or misrouted write
	// shows up as a corrupt value, not just a missing one.
	chaosValue := func(src, ts int64) (float64, float64) {
		return float64(ts % 997), float64(src)
	}

	deadline := time.Now().Add(budget)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: each owns a disjoint set of sources and writes strictly
	// increasing timestamps, recording which points were acked (quorum
	// reached). An un-acked point may or may not survive; an acked one
	// must.
	type ackSet struct {
		mu    sync.Mutex
		acked map[int64][]int64 // source -> acked timestamps
	}
	acks := &ackSet{acked: make(map[int64][]int64)}
	var attempted, ackedCount, quorumFailures int64
	var cntMu sync.Mutex
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts := int64(1000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < nSources; i += nWriters {
					src := int64(i + 1)
					r, s := chaosValue(src, ts)
					err := c.Write(model.Point{Source: src, TS: ts, Values: []float64{r, s}})
					cntMu.Lock()
					attempted++
					cntMu.Unlock()
					if err == nil {
						acks.mu.Lock()
						acks.acked[src] = append(acks.acked[src], ts)
						acks.mu.Unlock()
						cntMu.Lock()
						ackedCount++
						cntMu.Unlock()
						continue
					}
					if !Retryable(err) {
						t.Errorf("writer %d: non-retryable write failure: %v", w, err)
						return
					}
					cntMu.Lock()
					quorumFailures++
					cntMu.Unlock()
				}
				ts += 10
				// Throttle: the soak exercises fault paths, not peak
				// ingest; unbounded writing makes the final verification
				// scan dominate the budget.
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Queriers: scatter queries must come back complete, explicitly
	// partial, or retryable — and every row they do return must satisfy
	// the value formula.
	var queriesRun, partials, retryables int64
	for q := 0; q < nQueries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := int64(rng.Intn(nSources) + 1)
				res, err := c.Query(fmt.Sprintf(`SELECT * FROM meter_v WHERE id = %d`, src))
				cntMu.Lock()
				queriesRun++
				cntMu.Unlock()
				if err != nil {
					var pe *sqlexec.PartialResultError
					switch {
					case errors.As(err, &pe):
						if len(pe.Shards) == 0 {
							t.Errorf("querier %d: partial error names no shards: %v", q, err)
							return
						}
						cntMu.Lock()
						partials++
						cntMu.Unlock()
					case Retryable(err):
						cntMu.Lock()
						retryables++
						cntMu.Unlock()
					default:
						t.Errorf("querier %d: silent failure class: %v", q, err)
						return
					}
					continue
				}
				for _, row := range res.Rows {
					// meter_v columns: id, timestamp, reading, station.
					id, ts := row[0].AsInt(), row[1].AsInt()
					wantR, wantS := chaosValue(id, ts)
					if row[2].AsFloat() != wantR || row[3].AsFloat() != wantS {
						t.Errorf("querier %d: corrupt row for source %d ts %d: %v", q, id, ts, row)
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(q)
	}

	// Aggregate querier: distributed folds under fire. Every answer must
	// be complete, explicitly partial (with ZERO rows — a fold missing a
	// shard is a wrong total, never a "partial" one), or retryable; and
	// complete answers must satisfy the algebraic invariants the payload
	// formula implies (station == source id for every point, so
	// MIN == MAX == AVG == id and SUM == COUNT×id, exactly — the values
	// are small integers, so cross-shard float folds are exact).
	var aggQueriesRun, aggPartials, aggRetryables int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		for {
			select {
			case <-stop:
				return
			default:
			}
			kind := rng.Intn(3)
			src := int64(rng.Intn(nSources) + 1)
			var q string
			switch kind {
			case 0:
				q = `SELECT id, COUNT(*), MIN(station), MAX(station), AVG(station), SUM(station) FROM meter_v GROUP BY id`
			case 1:
				q = `SELECT id, COUNT(*), AVG(station) FROM meter_v GROUP BY id HAVING COUNT(*) > 2 ORDER BY AVG(station) DESC, id LIMIT 5`
			default:
				q = fmt.Sprintf(`SELECT TIME_BUCKET(1000, timestamp), COUNT(*), SUM(station) FROM meter_v WHERE id = %d GROUP BY TIME_BUCKET(1000, timestamp) ORDER BY TIME_BUCKET(1000, timestamp) LIMIT 8`, src)
			}
			res, err := c.Query(q)
			cntMu.Lock()
			aggQueriesRun++
			cntMu.Unlock()
			if err != nil {
				var pe *sqlexec.PartialResultError
				switch {
				case errors.As(err, &pe):
					if len(pe.Shards) == 0 {
						t.Errorf("agg querier: partial error names no shards: %v", err)
						return
					}
					if res != nil && len(res.Rows) != 0 {
						t.Errorf("agg querier: partial aggregate leaked %d folded rows for %q", len(res.Rows), q)
						return
					}
					cntMu.Lock()
					aggPartials++
					cntMu.Unlock()
				case Retryable(err):
					cntMu.Lock()
					aggRetryables++
					cntMu.Unlock()
				default:
					t.Errorf("agg querier: silent failure class: %v", err)
					return
				}
				continue
			}
			switch kind {
			case 0:
				for _, row := range res.Rows {
					id, cnt := row[0].AsInt(), row[1].AsInt()
					if cnt <= 0 {
						t.Errorf("agg querier: group %d with count %d", id, cnt)
						return
					}
					fid := float64(id)
					if row[2].AsFloat() != fid || row[3].AsFloat() != fid || row[4].AsFloat() != fid {
						t.Errorf("agg querier: mis-folded MIN/MAX/AVG for source %d: %v", id, row)
						return
					}
					if row[5].AsFloat() != float64(cnt)*fid {
						t.Errorf("agg querier: SUM != COUNT*id for source %d: %v", id, row)
						return
					}
				}
			case 1:
				if len(res.Rows) > 5 {
					t.Errorf("agg querier: LIMIT 5 returned %d rows", len(res.Rows))
					return
				}
				prev := int64(1) << 62
				for _, row := range res.Rows {
					id, cnt := row[0].AsInt(), row[1].AsInt()
					if cnt <= 2 {
						t.Errorf("agg querier: HAVING COUNT(*) > 2 leaked count %d for source %d", cnt, id)
						return
					}
					if row[2].AsFloat() != float64(id) {
						t.Errorf("agg querier: mis-folded AVG for source %d: %v", id, row)
						return
					}
					// AVG(station) == id and ids are unique, so AVG DESC
					// means strictly descending ids.
					if id >= prev {
						t.Errorf("agg querier: ORDER BY AVG DESC violated: id %d after %d", id, prev)
						return
					}
					prev = id
				}
			default:
				if len(res.Rows) > 8 {
					t.Errorf("agg querier: LIMIT 8 returned %d rows", len(res.Rows))
					return
				}
				prev := int64(-1) << 62
				for _, row := range res.Rows {
					bucket, cnt := row[0].AsInt(), row[1].AsInt()
					if cnt <= 0 {
						t.Errorf("agg querier: bucket %d with count %d", bucket, cnt)
						return
					}
					if row[2].AsFloat() != float64(cnt)*float64(src) {
						t.Errorf("agg querier: bucket SUM != COUNT*id for source %d: %v", src, row)
						return
					}
					if bucket <= prev {
						t.Errorf("agg querier: ORDER BY bucket violated: %d after %d", bucket, prev)
						return
					}
					prev = bucket
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Chaos: one goroutine serializes the fault schedule. At most one
	// node is down or stalled at a time, so every shard keeps a live
	// copy; queries still degrade transiently when both copies of a
	// shard are mid-failover.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop) // release writers/queriers even on an early error
		rng := rand.New(rand.NewSource(7))
		downNode := -1
		stalled := -1
		for time.Now().Before(deadline) {
			select {
			case <-stop:
				return
			default:
			}
			switch rng.Intn(6) {
			case 0: // kill one node (restart the previous victim first)
				if downNode == -1 {
					downNode = rng.Intn(nodes)
					if err := c.KillNode(downNode); err != nil {
						t.Errorf("kill %d: %v", downNode, err)
						return
					}
				}
			case 1: // restart + catch up
				if downNode != -1 {
					if err := c.RestartNode(downNode); err != nil {
						t.Errorf("restart %d: %v", downNode, err)
						return
					}
					// Catch-up may be transiently busy; retried below and
					// in the final sweep.
					if err := c.CatchUp(downNode); err != nil && !Retryable(err) {
						t.Errorf("catch up %d: %v", downNode, err)
						return
					}
					downNode = -1
				}
			case 2: // hang a node
				if stalled == -1 {
					stalled = rng.Intn(nodes)
					if err := c.StallNode(stalled, 3*time.Millisecond); err != nil {
						t.Errorf("stall %d: %v", stalled, err)
						return
					}
				}
			case 3: // heal it
				if stalled != -1 {
					if err := c.HealNode(stalled); err != nil {
						t.Errorf("heal %d: %v", stalled, err)
						return
					}
					stalled = -1
				}
			case 4: // opportunistic catch-up of whatever lags
				for i := 0; i < nodes; i++ {
					if i != downNode {
						if err := c.CatchUp(i); err != nil && !Retryable(err) {
							t.Errorf("catch up %d: %v", i, err)
							return
						}
					}
				}
			default: // checkpoint under fire; degraded flushes are expected
				_ = c.Flush()
			}
			time.Sleep(time.Duration(2+rng.Intn(8)) * time.Millisecond)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Recovery sweep: bring everything back, drain all hints, flush.
	for i := 0; i < nodes; i++ {
		if err := c.RestartNode(i); err != nil {
			t.Fatalf("final restart %d: %v", i, err)
		}
		if err := c.HealNode(i); err != nil {
			t.Fatalf("final heal %d: %v", i, err)
		}
	}
	for i := 0; i < nodes; i++ {
		for attempt := 0; ; attempt++ {
			err := c.CatchUp(i)
			if err == nil {
				break
			}
			if !Retryable(err) || attempt > 50 {
				t.Fatalf("final catch-up %d: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}

	// Invariant 1: every acked point is present with the right values.
	lost := 0
	for src := int64(1); src <= nSources; src++ {
		var res *QueryResult
		// The recovery sweep left everything healthy, but under the race
		// detector a big scan can transiently trip the replica timeout;
		// retry retryable outcomes rather than calling them data loss.
		for attempt := 0; ; attempt++ {
			var qerr error
			res, qerr = c.Query(fmt.Sprintf(`SELECT * FROM meter_v WHERE id = %d`, src))
			if qerr == nil {
				break
			}
			if attempt >= 20 || !Retryable(qerr) {
				t.Fatalf("final scan source %d: %v", src, qerr)
			}
			time.Sleep(50 * time.Millisecond)
		}
		have := make(map[int64][2]float64, len(res.Rows))
		for _, row := range res.Rows {
			have[row[1].AsInt()] = [2]float64{row[2].AsFloat(), row[3].AsFloat()}
		}
		acks.mu.Lock()
		ackedTS := acks.acked[src]
		acks.mu.Unlock()
		for _, ts := range ackedTS {
			vals, ok := have[ts]
			if !ok {
				lost++
				t.Errorf("acked point lost: source %d ts %d", src, ts)
				continue
			}
			wantR, wantS := chaosValue(src, ts)
			if vals[0] != wantR || vals[1] != wantS {
				t.Errorf("acked point corrupted: source %d ts %d got %v", src, ts, vals)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d acked writes lost", lost)
	}

	// Invariant 2 (post-hoc): the replicas converged and the storage
	// underneath them is intact.
	divergent, notes, err := c.VerifyReplicas()
	if err != nil {
		t.Fatalf("verify replicas: %v", err)
	}
	if len(divergent) != 0 {
		t.Fatalf("replicas diverged after recovery: %v", divergent)
	}
	if len(notes) != 0 {
		t.Fatalf("copies still stale after full catch-up: %v", notes)
	}
	copies := c.VerifyCopies()
	for _, ci := range copies {
		if !ci.OK() {
			t.Fatalf("storage problems after chaos: shard %d copy %d: err=%v report=%v", ci.Shard, ci.Replica, ci.Err, ci.Report)
		}
	}
	if len(copies) != nodes*replicas {
		t.Fatalf("verified %d copies, want %d", len(copies), nodes*replicas)
	}

	st := c.Stats()
	t.Logf("soak: %d writes attempted, %d acked, %d quorum failures; %d queries (%d partial, %d retryable); %d agg queries (%d partial, %d retryable); stats %+v",
		attempted, ackedCount, quorumFailures, queriesRun, partials, retryables, aggQueriesRun, aggPartials, aggRetryables, st)
	if ackedCount == 0 || queriesRun == 0 || aggQueriesRun == 0 {
		t.Fatal("soak did no work")
	}
	if st.Kills == 0 {
		t.Log("note: budget too short for a kill cycle; raise ODH_CHAOS_BUDGET")
	}
}
