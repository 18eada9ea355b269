// Package cluster implements the multi-data-server deployment of the
// paper's Figure 2: operational data is hash-partitioned by data source
// across N storage nodes, relational (business) data is replicated to
// every node, and queries scatter to all shards and gather their rows.
// The coordinator's routing table is the same catalog metadata the data
// router consults per query.
//
// The unit of placement is the shard copy: shard s has R copies, copy k
// living on node (s+k) mod N, each an *odh.Historian over its own
// fault-injectable page file and recovery log: the router sits on top of
// the historian the way internal/server does, so a copy flushes, recovers,
// fscks and counts exactly as a single node does. Writes go to every copy
// of the home shard and acknowledge on a configurable quorum with
// per-replica timeouts; a copy that misses a write accumulates a hinted-handoff
// record (WAL point encoding, walog framing) at the coordinator and is
// excluded from reads until CatchUp replays its hints. Reads fail over
// across copies with bounded jittered exponential backoff and degrade to
// a *sqlexec.PartialResultError naming the shards with zero live fresh
// copies. KillNode / RestartNode / StallNode are the chaos surface: a
// kill arms every fault on the copy's files (in-flight I/O fails, nothing
// lands after the crash point) and a restart reopens the historians from
// the surviving backing files (odh.Open replays the log with dedup).
//
// Known degraded-mode limits: relational DML and metadata changes
// (ExecAll, CreateSchema, RegisterSource) have no hinted handoff — a
// statement that fails on a down copy stays missing there and surfaces in
// the aggregate NodeError; issue them while the cluster is healthy.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"odh"
	"odh/internal/fault"
	"odh/internal/metrics"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/retry"
	"odh/internal/walog"
)

// NodeError tags an error with the index of the node it came from, so a
// scatter operation's aggregate error pinpoints the failing data servers.
type NodeError struct {
	Node int
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("cluster: node %d: %v", e.Node, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// joinNodeErrors aggregates per-node failures (nil when none). The result
// supports errors.Is/As traversal into each NodeError.
func joinNodeErrors(errs []error) error {
	return errors.Join(errs...)
}

// Sentinel errors of the replication layer. All of them are Retryable.
var (
	// ErrNodeDown reports an operation routed to a killed node.
	ErrNodeDown = errors.New("cluster: node is down")
	// ErrReplicaTimeout reports a per-replica operation that exceeded
	// ReplicaTimeout (a hung node).
	ErrReplicaTimeout = errors.New("cluster: replica operation timed out")
	// ErrReplicaStale reports a read routed to a copy with pending
	// hinted-handoff records; reading it could silently miss acked data.
	ErrReplicaStale = errors.New("cluster: replica is stale (pending hinted handoff)")
	// ErrNoQuorum reports a write acknowledged by fewer copies than
	// WriteQuorum. The write may exist on some copies and is queued as a
	// hint for the rest, but it was NOT acked.
	ErrNoQuorum = errors.New("cluster: write quorum not reached")
)

// Retryable classifies an error as transient: the same operation against
// the cluster may succeed later (after failover, restart, or catch-up).
// Non-retryable errors (parse errors, unknown tables, arity mismatches)
// fail identically on every replica.
func Retryable(err error) bool {
	return err != nil && (errors.Is(err, ErrNodeDown) ||
		errors.Is(err, ErrReplicaTimeout) ||
		errors.Is(err, ErrReplicaStale) ||
		errors.Is(err, ErrNoQuorum) ||
		errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, pagestore.ErrClosed) ||
		errors.Is(err, walog.ErrClosed) ||
		errors.Is(err, context.DeadlineExceeded))
}

// Options configures a replicated cluster.
type Options struct {
	// Nodes is the data-server count.
	Nodes int
	// Replicas is the copy count per shard, capped at Nodes. 0 means 1.
	Replicas int
	// WriteQuorum is the number of copies that must apply a write before
	// it is acknowledged. 0 means majority (Replicas/2 + 1).
	WriteQuorum int
	// ReplicaTimeout bounds each per-replica operation (write or shard
	// read); a hung node turns into ErrReplicaTimeout instead of a hung
	// cluster. 0 means 2s; negative disables.
	ReplicaTimeout time.Duration
	// Retry bounds shard-read failover: attempts cycle the shard's
	// copies with jittered exponential backoff between rounds. Zero
	// value means retry.Policy{MaxAttempts: 3, BaseDelay: 5ms,
	// MaxDelay: 100ms}.
	Retry retry.Policy
	// Seed seeds the backoff jitter (0 picks an arbitrary seed).
	Seed int64
	// QueryTimeout bounds a whole scattered query (all shards, all
	// failover rounds) when the caller's context carries no deadline of
	// its own. 0 disables.
	QueryTimeout time.Duration
	// Node configures each copy's historian, exactly as for a single
	// node; the cluster sets Backing and WALBacking itself, per copy.
	Node odh.Options
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Replicas > o.Nodes {
		o.Replicas = o.Nodes
	}
	if o.WriteQuorum <= 0 {
		o.WriteQuorum = o.Replicas/2 + 1
	}
	if o.WriteQuorum > o.Replicas {
		o.WriteQuorum = o.Replicas
	}
	if o.ReplicaTimeout == 0 {
		o.ReplicaTimeout = 2 * time.Second
	}
	if o.Retry.MaxAttempts == 0 {
		o.Retry = retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Stats counts replication and failover activity since the cluster was
// built. A Cluster holds one Stats as its live counters, allocated on its
// own so every field is 8-byte aligned: writers bump a field with
// atomic.AddInt64, and Cluster.Stats reads them all through
// metrics.Snapshot.
type Stats struct {
	WritesAcked         int64 // writes that reached quorum
	WriteQuorumFailures int64 // writes that did not
	ReplicaWriteErrors  int64 // per-copy write failures (each queues a hint)
	HintsQueued         int64
	HintsReplayed       int64 // hints applied during catch-up
	HintsDeduped        int64 // hints skipped: the copy already had the point
	Failovers           int64 // shard reads answered by a non-first choice
	Backoffs            int64 // jittered sleeps between failover rounds
	Queries             int64
	PartialQueries      int64 // queries that returned a PartialResultError
	AggGathers          int64 // scatter queries merged by the aggregate gather
	Kills               int64
	Restarts            int64
}

// Cluster is a set of shard copies with a source-hash router.
type Cluster struct {
	opts Options

	nodes  []*nodeState
	shards [][]*shardCopy // [shard][replica]

	rngMu sync.Mutex
	rng   *rand.Rand

	stats *Stats
}

// nodeState is the liveness view of one data server.
type nodeState struct {
	down    atomic.Bool
	stallNs atomic.Int64
}

// NewReplicated builds a cluster with opts.Replicas copies per shard.
func NewReplicated(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	opts = opts.withDefaults()
	c := &Cluster{opts: opts, rng: rand.New(rand.NewSource(opts.Seed)), stats: new(Stats)}
	for i := 0; i < opts.Nodes; i++ {
		c.nodes = append(c.nodes, &nodeState{})
	}
	c.shards = make([][]*shardCopy, opts.Nodes)
	for s := range c.shards {
		for k := 0; k < opts.Replicas; k++ {
			cp, err := c.newCopy(s, k, (s+k)%opts.Nodes)
			if err != nil {
				c.Close()
				return nil, err
			}
			c.shards[s] = append(c.shards[s], cp)
		}
	}
	return c, nil
}

// Close closes every live copy's historian (pages commit before the
// recovery log recycles, as on a single node), stops the hint logs, and
// returns the first error.
func (c *Cluster) Close() error {
	var first error
	c.forEachCopy(func(cp *shardCopy) error {
		if h := cp.h.Swap(nil); h != nil {
			if err := h.Close(); err != nil && first == nil {
				first = err
			}
		}
		cp.hints.Close()
		return nil
	})
	return first
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Replicas returns the copy count per shard.
func (c *Cluster) Replicas() int { return c.opts.Replicas }

// Quorum returns the effective write quorum after defaulting (majority
// of Replicas unless configured).
func (c *Cluster) Quorum() int { return c.opts.WriteQuorum }

// shardOf routes a data source to its home shard.
func (c *Cluster) shardOf(source int64) int {
	h := uint64(source) * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return int(h % uint64(len(c.shards)))
}

// forEachCopy visits every copy in shard-then-replica order.
func (c *Cluster) forEachCopy(fn func(cp *shardCopy) error) error {
	for _, copies := range c.shards {
		for _, cp := range copies {
			if err := fn(cp); err != nil {
				return err
			}
		}
	}
	return nil
}

// onEveryCopy applies a metadata change to every copy's historian, then
// checkpoints it. Metadata is not covered by the point WAL, so a crash
// before the next flush would otherwise leave the copy's recovery log
// referencing sources its reopened catalog has never heard of. Metadata
// changes are rare; the synchronous checkpoint is the price of making
// them durable. Issue them while healthy: they have no hinted handoff, and
// the first down or failing copy aborts the sweep.
func (c *Cluster) onEveryCopy(apply func(h *odh.Historian) error) error {
	return c.forEachCopy(func(cp *shardCopy) error {
		h := c.live(cp)
		if h == nil {
			return &NodeError{Node: cp.host, Err: ErrNodeDown}
		}
		if err := apply(h); err != nil {
			return err
		}
		return h.Flush()
	})
}

// CreateSchema registers a schema type on every copy (metadata is
// replicated so any node can answer any query shape).
func (c *Cluster) CreateSchema(st model.SchemaType) error {
	return c.onEveryCopy(func(h *odh.Historian) error {
		_, err := h.CreateSchema(st)
		return err
	})
}

// Schema looks up a schema type by name on any live copy (metadata is
// replicated); false when the name is unknown or no copy is up.
func (c *Cluster) Schema(name string) (*model.SchemaType, bool) {
	if h := c.anyLive(); h != nil {
		return h.Schema(name)
	}
	return nil, false
}

// CreateVirtualTable registers the virtual table on every copy.
func (c *Cluster) CreateVirtualTable(table, schemaName string) error {
	return c.onEveryCopy(func(h *odh.Historian) error {
		return h.CreateVirtualTable(table, schemaName)
	})
}

// RegisterSource registers the source's metadata on every copy; only the
// home shard's copies will ever hold its data. Explicit IDs are required
// so routing is stable across nodes.
func (c *Cluster) RegisterSource(ds model.DataSource) error {
	if ds.ID == 0 {
		return fmt.Errorf("cluster: sources must carry explicit ids")
	}
	return c.onEveryCopy(func(h *odh.Historian) error {
		_, err := h.RegisterSource(ds)
		return err
	})
}

// Write routes one point to every copy of its source's home shard and
// acknowledges once WriteQuorum copies applied it. A copy that fails or
// times out gets a hinted-handoff record and is excluded from reads until
// it catches up; the write itself still acks as long as quorum holds, so
// a dead replica degrades redundancy, not availability. Below quorum the
// error wraps ErrNoQuorum (retryable) — the point is NOT acked, though
// surviving copies may hold it and the hints will converge the rest.
func (c *Cluster) Write(p model.Point) error {
	copies := c.shards[c.shardOf(p.Source)]
	acks := 0
	var errs []error
	for _, cp := range copies {
		if err := c.writeCopy(cp, p); err != nil {
			atomic.AddInt64(&c.stats.ReplicaWriteErrors, 1)
			errs = append(errs, &NodeError{Node: cp.host, Err: err})
			c.hint(cp, p)
			continue
		}
		acks++
	}
	if acks >= c.opts.WriteQuorum {
		atomic.AddInt64(&c.stats.WritesAcked, 1)
		return nil
	}
	atomic.AddInt64(&c.stats.WriteQuorumFailures, 1)
	return fmt.Errorf("%w: %d/%d acks: %w", ErrNoQuorum, acks, c.opts.WriteQuorum, joinNodeErrors(errs))
}

// onLiveCopies runs op on every live copy's historian. A failing copy
// does not abort the sweep: healthy copies still run, and the per-copy
// failures (down copies included) come back aggregated as NodeErrors —
// one dead data server degrades the cluster instead of wedging it.
func (c *Cluster) onLiveCopies(op func(h *odh.Historian) error) error {
	var errs []error
	c.forEachCopy(func(cp *shardCopy) error {
		h := c.live(cp)
		if h == nil {
			errs = append(errs, &NodeError{Node: cp.host, Err: ErrNodeDown})
		} else if err := op(h); err != nil {
			errs = append(errs, &NodeError{Node: cp.host, Err: err})
		}
		return nil
	})
	return joinNodeErrors(errs)
}

// Flush checkpoints every live copy (Historian.Flush: ingest buffers,
// page commit, then the recovery-log recycle), degrading past failing
// copies.
func (c *Cluster) Flush() error {
	return c.onLiveCopies((*odh.Historian).Flush)
}

// ExecAll runs a DDL or DML statement on every copy (relational tables
// and their contents are replicated), degrading past failing copies so
// replicas that can apply the statement do. There is no relational hinted
// handoff: a copy that misses a statement stays diverged until rebuilt.
func (c *Cluster) ExecAll(sql string) error {
	return c.onLiveCopies(func(h *odh.Historian) error {
		_, err := h.Query(sql)
		return err
	})
}

// Stats returns a snapshot of replication and failover counters.
func (c *Cluster) Stats() Stats { return metrics.Snapshot(c.stats) }

// TotalStats sums every live copy's Historian.TotalStats — the
// cluster-wide view of ingest volume and of the summary-level aggregate
// pushdown (SummaryHits / BytesNotDecoded) working per shard. Down copies
// contribute nothing; their counters return after restart.
func (c *Cluster) TotalStats() odh.HistorianStats {
	var total odh.HistorianStats
	c.forEachCopy(func(cp *shardCopy) error {
		if h := c.live(cp); h != nil {
			metrics.Add(&total, h.TotalStats())
		}
		return nil
	})
	if n := total.PoolHits + total.PoolMisses; n > 0 {
		total.PoolHitRate = float64(total.PoolHits) / float64(n)
	}
	return total
}

// CopyStatus is the liveness view of one shard copy.
type CopyStatus struct {
	Shard        int
	Replica      int
	Host         int
	Up           bool
	PendingHints int64
	CatchingUp   bool
}

// NodeStatus is the liveness view of one data server.
type NodeStatus struct {
	Node    int
	Down    bool
	Stalled bool
	Copies  []CopyStatus // copies hosted on this node
}

// Status reports per-node liveness and per-copy staleness for operator
// tooling (.cluster in odh-cli).
func (c *Cluster) Status() []NodeStatus {
	out := make([]NodeStatus, len(c.nodes))
	for i, ns := range c.nodes {
		out[i] = NodeStatus{Node: i, Down: ns.down.Load(), Stalled: ns.stallNs.Load() > 0}
	}
	c.forEachCopy(func(cp *shardCopy) error {
		out[cp.host].Copies = append(out[cp.host].Copies, CopyStatus{
			Shard:        cp.shard,
			Replica:      cp.replica,
			Host:         cp.host,
			Up:           c.live(cp) != nil,
			PendingHints: cp.pendingHints.Load(),
			CatchingUp:   cp.catchingUp.Load(),
		})
		return nil
	})
	return out
}
