// Scatter-query failover and the cross-shard gather. A query scatters
// per shard (not per node): each shard is answered by its first
// readable, caught-up copy, retrying the remaining copies with bounded
// jittered exponential backoff on retryable errors. A shard with zero
// live fresh copies degrades the query to an explicit partial result; a
// non-retryable error (parse error, unknown table) fails the query
// outright, since every replica would reject it identically.
//
// Aggregation composes through a sqlexec.GatherPlan: each shard runs a
// partial-aggregate rewrite (AVG decomposed into SUM+COUNT) that still
// rides the storage-level summary pushdown, and the coordinator re-folds
// the partials and runs HAVING, ORDER BY and LIMIT over the folded groups
// through the single-node engine's operators. Cancellation and deadlines
// flow from QueryContext through every shard sub-query.
package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"odh/internal/sqlexec"
	"odh/internal/sqlparse"
)

// QueryResult gathers rows from a scattered query.
type QueryResult struct {
	Columns    []string
	Rows       []sqlexec.Row
	DataPoints int64
	BlobBytes  int64
	// Unavailable lists shards that contributed nothing, ascending; set
	// exactly when Query also returned a *sqlexec.PartialResultError.
	Unavailable []int
}

// copyResult is one copy's answer to a shard sub-query.
type copyResult struct {
	cols []string
	rows []sqlexec.Row
	dp   int64
	bb   int64
}

// Query scatters a SELECT across the shards and gathers the results
// with no cancellation beyond Options.QueryTimeout.
func (c *Cluster) Query(sql string) (*QueryResult, error) {
	return c.QueryContext(context.Background(), sql)
}

// QueryContext scatters a SELECT across the shards and gathers the
// results. Plain selections and joins concatenate; aggregates
// (COUNT/SUM/MIN/MAX/AVG, optionally grouped by plain columns or
// TIME_BUCKET, with HAVING/ORDER BY/LIMIT) are re-folded at the
// coordinator from per-shard partials; non-aggregate ORDER BY/LIMIT
// re-sorts the concatenated rows so the global order and bound hold.
//
// On node failure the shard fails over to another replica; a shard with
// no live fresh replica degrades the query to a
// *sqlexec.PartialResultError. For row queries the surviving shards'
// rows accompany the error (complete for every shard not listed); for
// aggregate queries Rows is nil — a fold over the survivors would be a
// wrong total presented as the answer, so it is withheld. Queries over
// purely relational tables (replicated everywhere) are answered by the
// first shard that responds.
//
// Cancelling ctx aborts the scatter: in-flight shard queries stop at the
// engine's next cancellation check and QueryContext returns ctx's error.
// When ctx carries no deadline and Options.QueryTimeout is set, the
// scatter runs under that timeout.
func (c *Cluster) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	atomic.AddInt64(&c.stats.Queries, 1)
	if d := c.opts.QueryTimeout; d > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	plan, err := c.classifyScatter(sql)
	if err != nil {
		return nil, err
	}
	if plan != nil && plan.relationalOnly {
		return c.queryRelational(ctx, sql)
	}

	out := &QueryResult{}
	var acc *sqlexec.GatherAccum
	shardSQL := sql
	if plan != nil && plan.gather != nil {
		acc = sqlexec.NewGatherAccum(plan.gather)
		if plan.gather.Aggregate() {
			atomic.AddInt64(&c.stats.AggGathers, 1)
			shardSQL = plan.gather.ShardSQL
			out.Columns = plan.gather.Columns
		}
	}
	var unavailable []int
	var shardErrs []error
	for s := range c.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := c.queryShard(ctx, s, shardSQL)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if !Retryable(err) {
				return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
			}
			unavailable = append(unavailable, s)
			shardErrs = append(shardErrs, err)
			continue
		}
		if out.Columns == nil {
			out.Columns = res.cols
		}
		out.DataPoints += res.dp
		out.BlobBytes += res.bb
		if acc != nil {
			if err := acc.Fold(res.cols, res.rows); err != nil {
				return nil, err
			}
			continue
		}
		out.Rows = append(out.Rows, res.rows...)
	}
	if acc != nil {
		rows, err := acc.Result()
		if err != nil {
			return nil, err
		}
		out.Rows = rows
	}
	if len(unavailable) > 0 {
		sort.Ints(unavailable)
		out.Unavailable = unavailable
		atomic.AddInt64(&c.stats.PartialQueries, 1)
		if plan != nil && plan.gather != nil && plan.gather.Aggregate() {
			// A fold missing a shard's partials is a plausible-looking
			// wrong answer, not a partial one. Withhold it.
			out.Rows = nil
		}
		return out, &sqlexec.PartialResultError{Shards: unavailable, Errs: shardErrs}
	}
	return out, nil
}

// queryRelational answers a query over fully replicated relational
// tables: every shard holds the complete data, so the first shard that
// responds has the whole answer, and a retryable failure falls through
// to the next shard instead of degrading to a partial result.
func (c *Cluster) queryRelational(ctx context.Context, sql string) (*QueryResult, error) {
	var lastErr error
	for s := range c.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := c.queryShard(ctx, s, sql)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if !Retryable(err) {
				return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
			}
			lastErr = err
			continue
		}
		return &QueryResult{Columns: res.cols, Rows: res.rows, DataPoints: res.dp, BlobBytes: res.bb}, nil
	}
	return nil, lastErr
}

// queryShard answers one shard's sub-query from its first readable copy,
// cycling the copies with jittered backoff between rounds. It returns a
// retryable error only after exhausting every copy in every round, or
// ctx's error as soon as the deadline expires.
func (c *Cluster) queryShard(ctx context.Context, s int, sql string) (*copyResult, error) {
	copies := c.shards[s]
	attempts := c.opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for round := 0; round < attempts; round++ {
		if round > 0 {
			c.rngMu.Lock()
			d := c.opts.Retry.Delay(round, c.rng)
			c.rngMu.Unlock()
			atomic.AddInt64(&c.stats.Backoffs, 1)
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
		}
		for k, cp := range copies {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if rerr := c.readable(cp); rerr != nil {
				lastErr = &NodeError{Node: cp.host, Err: rerr}
				continue
			}
			res, err := c.execOnCopy(ctx, cp, sql)
			if err == nil {
				if k > 0 || round > 0 {
					atomic.AddInt64(&c.stats.Failovers, 1)
				}
				return res, nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if !Retryable(err) {
				return nil, err
			}
			lastErr = &NodeError{Node: cp.host, Err: err}
		}
	}
	if lastErr == nil {
		lastErr = &NodeError{Node: copies[0].host, Err: ErrNodeDown}
	}
	return nil, lastErr
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// execOnCopy runs the sub-query on one copy under the stall gate, the
// per-replica timeout, and the caller's ctx. Results cross the timeout
// boundary through a channel, so an abandoned slow query can never race
// its caller — and the abandoned engine query itself runs under a
// cancelled context, so it stops at its next cancellation check instead
// of scanning to completion.
func (c *Cluster) execOnCopy(ctx context.Context, cp *shardCopy, sql string) (*copyResult, error) {
	ns := c.nodes[cp.host]
	h := c.live(cp)
	if h == nil {
		return nil, ErrNodeDown
	}
	var runCtx context.Context
	var cancel context.CancelFunc
	if c.opts.ReplicaTimeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, c.opts.ReplicaTimeout)
	} else {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	run := func() (*copyResult, error) {
		if err := c.stallGateCtx(runCtx, ns); err != nil {
			return nil, err
		}
		res, err := h.QueryContext(runCtx, sql)
		if err != nil {
			return nil, err
		}
		rows, err := res.FetchAll()
		if err != nil {
			return nil, err
		}
		return &copyResult{cols: res.Columns, rows: rows, dp: res.DataPoints, bb: res.BlobBytes()}, nil
	}
	if c.opts.ReplicaTimeout <= 0 {
		return run()
	}
	type outcome struct {
		r   *copyResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := run()
		done <- outcome{r, err}
	}()
	select {
	case o := <-done:
		return o.r, o.err
	case <-runCtx.Done():
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrReplicaTimeout
	}
}

// scatterPlan classifies a scatter query: nil means plain concatenation.
type scatterPlan struct {
	gather         *sqlexec.GatherPlan
	relationalOnly bool
}

// classifyScatter decides how a SELECT composes across shards. Parse
// failures return a nil plan — the engines surface the identical error.
// Gather planning (and its rejections, which mirror the single-node
// engine's) is delegated to sqlexec.PlanGather.
func (c *Cluster) classifyScatter(sql string) (*scatterPlan, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok || sel.Explain {
		return nil, nil
	}
	// Metadata is replicated, so one live copy's catalog answers for all.
	var vtables []string
	if h := c.anyLive(); h != nil {
		vtables = h.VirtualTables()
	}
	relOnly := !slices.ContainsFunc(sel.From, func(tr sqlparse.TableRef) bool {
		return slices.Contains(vtables, tr.Name)
	})
	if relOnly {
		// Replicated data: any one shard computes the complete answer,
		// post-aggregate clauses included; scattering would count every
		// row once per shard.
		return &scatterPlan{relationalOnly: true}, nil
	}
	gather, err := sqlexec.PlanGather(sel)
	if err != nil {
		return nil, err
	}
	if gather == nil {
		return nil, nil
	}
	return &scatterPlan{gather: gather}, nil
}
