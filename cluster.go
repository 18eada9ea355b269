package odh

import (
	"context"
	"strconv"
	"time"

	"odh/internal/cluster"
	"odh/internal/retry"
	"odh/internal/sqlexec"
)

// PartialResultError is the structured degradation marker a cluster
// query returns when some shards had no live up-to-date replica: Shards
// lists them, Errs holds the last failure per shard. Plain row queries
// keep the surviving shards' rows alongside it; aggregate queries come
// back with no rows at all (a fold missing a shard would be a wrong
// total, not a partial one). Extract it with errors.As; a query that
// cannot be answered completely NEVER comes back silently short.
type PartialResultError = sqlexec.PartialResultError

// ClusterStats re-exports the replication and failover counters.
type ClusterStats = cluster.Stats

// ClusterNodeStatus is the per-node liveness view (Status).
type ClusterNodeStatus = cluster.NodeStatus

// ClusterQueryResult gathers rows from a scattered query; Unavailable
// lists degraded shards when the query also returned a
// *PartialResultError.
type ClusterQueryResult = cluster.QueryResult

// RetryableClusterError reports whether an error from a cluster
// operation is transient: the same call may succeed after failover,
// restart, or catch-up. Parse errors and schema mismatches are not.
func RetryableClusterError(err error) bool { return cluster.Retryable(err) }

// ClusterOptions configures a replicated in-process cluster.
type ClusterOptions struct {
	// Nodes is the data-server count (required, >= 1).
	Nodes int
	// Replicas is the copy count per shard (default 1, capped at Nodes).
	Replicas int
	// WriteQuorum is how many copies must apply a write before it acks
	// (default: majority of Replicas).
	WriteQuorum int
	// ReplicaTimeout bounds each per-replica write or shard read; a hung
	// node becomes a retryable timeout instead of a hung cluster.
	// 0 = 2s; negative disables.
	ReplicaTimeout time.Duration
	// RetryAttempts / RetryBaseDelay / RetryMaxDelay bound shard-read
	// failover: attempts cycle a shard's replicas with jittered
	// exponential backoff between rounds (defaults 3 / 5ms / 100ms).
	RetryAttempts  int
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Seed seeds the backoff jitter (0 picks a fixed default).
	Seed int64
	// QueryTimeout bounds a whole scattered query (all shards, all
	// failover rounds) when the caller's context has no deadline of its
	// own. 0 disables.
	QueryTimeout time.Duration
	// BatchSize / GroupSize / PoolPages configure each replica's storage
	// stack, as in Options.
	BatchSize int
	GroupSize int
	PoolPages int
}

// Cluster is a replicated multi-node historian: operational data is
// hash-partitioned by source across Nodes shards, each shard keeps
// Replicas copies on distinct nodes, writes acknowledge on WriteQuorum,
// and scatter queries fail over across copies. See internal/cluster for
// the full semantics (hinted handoff, staleness, chaos surface).
type Cluster struct {
	c *cluster.Cluster
}

// OpenCluster builds a replicated in-process cluster.
func OpenCluster(opts ClusterOptions) (*Cluster, error) {
	c, err := cluster.NewReplicated(cluster.Options{
		Nodes:          opts.Nodes,
		Replicas:       opts.Replicas,
		WriteQuorum:    opts.WriteQuorum,
		ReplicaTimeout: opts.ReplicaTimeout,
		Retry: retry.Policy{
			MaxAttempts: opts.RetryAttempts,
			BaseDelay:   opts.RetryBaseDelay,
			MaxDelay:    opts.RetryMaxDelay,
		},
		Seed:         opts.Seed,
		QueryTimeout: opts.QueryTimeout,
		Node: cluster.NodeOptions{
			BatchSize: opts.BatchSize,
			GroupSize: opts.GroupSize,
			PoolPages: opts.PoolPages,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Close flushes and releases every live replica.
func (c *Cluster) Close() error { return c.c.Close() }

// Nodes returns the node count, Replicas the copies per shard, and
// Quorum the effective write quorum after defaulting.
func (c *Cluster) Nodes() int    { return c.c.Nodes() }
func (c *Cluster) Replicas() int { return c.c.Replicas() }
func (c *Cluster) Quorum() int   { return c.c.Quorum() }

// CreateSchema registers a schema type on every replica. Metadata
// changes have no hinted handoff — issue them while the cluster is
// healthy.
func (c *Cluster) CreateSchema(st SchemaType) error { return c.c.CreateSchema(st) }

// Schema looks up a schema type by name (metadata is replicated, so any
// node answers).
func (c *Cluster) Schema(name string) (*SchemaType, bool) {
	return c.c.Node(0).Cat.SchemaByName(name)
}

// CreateVirtualTable exposes a schema type under a SQL table name on
// every replica.
func (c *Cluster) CreateVirtualTable(table, schemaName string) error {
	return c.c.CreateVirtualTable(table, schemaName)
}

// RegisterSource registers a source's metadata everywhere; its data will
// live only on its home shard's replicas. IDs must be explicit so
// routing is stable.
func (c *Cluster) RegisterSource(ds DataSource) error { return c.c.RegisterSource(ds) }

// Write routes a point to its home shard's replicas and acks on quorum.
// Below quorum the error is retryable and the point is NOT acked.
func (c *Cluster) Write(p Point) error { return c.c.Write(p) }

// Query scatters a SELECT across the shards, failing over per shard and
// re-folding aggregates (COUNT/SUM/MIN/MAX/AVG with GROUP BY, HAVING,
// ORDER BY, and LIMIT) at the coordinator from per-shard partials. When
// some shards have no live fresh replica it returns a
// *PartialResultError naming them — with the surviving rows for plain
// row queries, and with NO rows for aggregate queries, since a fold
// missing a shard would be a wrong total, not a partial one.
func (c *Cluster) Query(sql string) (*ClusterQueryResult, error) { return c.c.Query(sql) }

// QueryContext is Query under a context: cancelling ctx aborts the
// scatter at the engines' next cancellation check. When ctx has no
// deadline and ClusterOptions.QueryTimeout is set, the scatter runs
// under that timeout.
func (c *Cluster) QueryContext(ctx context.Context, sql string) (*ClusterQueryResult, error) {
	return c.c.QueryContext(ctx, sql)
}

// ClusterTotalStats aggregates storage counters across every live
// replica — most usefully the summary-pushdown pair (SummaryHits /
// BytesNotDecoded), which shows aggregate scatter queries folding from
// blob-header summaries on each shard instead of decoding raw columns.
type ClusterTotalStats struct {
	PointsWritten   int64
	BatchesFlushed  int64
	BlobBytes       int64
	ParallelScans   int64
	SummaryHits     int64
	BytesNotDecoded int64
	// Sub-bucket fold counters (disjoint from SummaryHits/BytesNotDecoded):
	// straddling blobs folded entirely from per-sub-bucket mini-summaries.
	SubBucketFolds           int64
	SubBucketBytesNotDecoded int64
}

// TotalStats sums storage counters over live replicas. Down nodes
// contribute nothing until restarted.
func (c *Cluster) TotalStats() ClusterTotalStats {
	ts := c.c.TotalTSStats()
	return ClusterTotalStats{
		PointsWritten:            ts.PointsWritten,
		BatchesFlushed:           ts.BatchesFlushed,
		BlobBytes:                ts.BlobBytes,
		ParallelScans:            ts.ParallelScans,
		SummaryHits:              ts.SummaryHits,
		BytesNotDecoded:          ts.BytesNotDecoded,
		SubBucketFolds:           ts.SubBucketFolds,
		SubBucketBytesNotDecoded: ts.SubBucketBytesNotDecoded,
	}
}

// Exec runs a DDL or DML statement on every replica (relational data is
// replicated), degrading past down nodes with aggregated NodeErrors.
func (c *Cluster) Exec(sql string) error { return c.c.ExecAll(sql) }

// Flush checkpoints every live replica (ingest buffers, page store,
// recovery-log recycle), degrading past down nodes.
func (c *Cluster) Flush() error { return c.c.Flush() }

// Stats snapshots the replication and failover counters.
func (c *Cluster) Stats() ClusterStats { return c.c.Stats() }

// Status reports per-node liveness and per-copy staleness.
func (c *Cluster) Status() []ClusterNodeStatus { return c.c.Status() }

// KillNode simulates a crash of node i (chaos surface: in-flight I/O
// fails, nothing lands after the crash point). RestartNode recovers it
// from its surviving files and recovery log; CatchUp then replays the
// hinted-handoff records its copies missed.
func (c *Cluster) KillNode(i int) error    { return c.c.KillNode(i) }
func (c *Cluster) RestartNode(i int) error { return c.c.RestartNode(i) }
func (c *Cluster) CatchUp(i int) error     { return c.c.CatchUp(i) }

// StallNode injects latency d into node i (a hung data server);
// HealNode removes it.
func (c *Cluster) StallNode(i int, d time.Duration) error { return c.c.StallNode(i, d) }
func (c *Cluster) HealNode(i int) error                   { return c.c.HealNode(i) }

// ClusterIntegrityReport is VerifyCluster's findings: the storage-level
// checks of every replica plus the cross-replica divergence check.
type ClusterIntegrityReport struct {
	// CopiesChecked counts replicas whose page graph and blobs verified.
	CopiesChecked int
	// StorageProblems lists per-copy storage faults (corrupt pages or
	// blobs, down copies).
	StorageProblems []string
	// DivergentShards lists shards whose replica contents disagree.
	DivergentShards []string
	// SkippedCopies lists copies excluded from the divergence check
	// (down or awaiting catch-up) — expected to lag, not corrupt.
	SkippedCopies []string
}

// OK reports whether every replica verified clean and consistent.
func (r *ClusterIntegrityReport) OK() bool {
	return len(r.StorageProblems) == 0 && len(r.DivergentShards) == 0
}

// VerifyCluster fscks the cluster: each replica's pages and blobs, then
// a cross-replica full-content comparison per shard. The error is
// non-nil only when verification itself cannot run.
func (c *Cluster) VerifyCluster() (*ClusterIntegrityReport, error) {
	rep := &ClusterIntegrityReport{}
	checked, problems, err := c.c.VerifyCopies()
	if err != nil {
		return nil, err
	}
	rep.CopiesChecked = checked
	rep.StorageProblems = problems
	divergent, notes, err := c.c.VerifyReplicas()
	if err != nil {
		return nil, err
	}
	for _, d := range divergent {
		rep.DivergentShards = append(rep.DivergentShards,
			"shard "+strconv.Itoa(d.Shard)+": "+d.Detail)
	}
	rep.SkippedCopies = notes
	return rep, nil
}
