// Package cluster implements the multi-data-server deployment of the
// paper's Figure 2: operational data is hash-partitioned by data source
// across N storage nodes, relational (business) data is replicated to
// every node, and queries scatter to all shards and gather their rows.
// The coordinator's routing table is the same catalog metadata the data
// router consults per query.
//
// The unit of placement is the shard copy: shard s has R copies, copy k
// living on node (s+k) mod N, each a full storage stack (page store,
// recovery log, catalog, time-series store, relational DB, SQL engine)
// over its own fault-injectable files. Writes go to every copy of the
// home shard and acknowledge on a configurable quorum with per-replica
// timeouts; a copy that misses a write accumulates a hinted-handoff
// record (WAL point encoding, walog framing) at the coordinator and is
// excluded from reads until CatchUp replays its hints. Reads fail over
// across copies with bounded jittered exponential backoff and degrade to
// a *sqlexec.PartialResultError naming the shards with zero live fresh
// copies. KillNode / RestartNode / StallNode are the chaos surface: a
// kill arms every fault on the copy's files (in-flight I/O fails, nothing
// lands after the crash point) and a restart reopens the stacks from the
// surviving backing files with deduplicating WAL replay.
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

	"odh/internal/catalog"
	"odh/internal/fault"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/relational"
	"odh/internal/retry"
	"odh/internal/sqlexec"
	"odh/internal/tsstore"
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

// NodeOptions configures each node's storage stack.
type NodeOptions struct {
	BatchSize int
	GroupSize int
	PoolPages int
}

// Node is one shard copy's data server: a full storage stack plus a SQL
// engine.
type Node struct {
	Page   *pagestore.Store
	Cat    *catalog.Catalog
	TS     *tsstore.Store
	Rel    *relational.DB
	Engine *sqlexec.Engine
}

// newNodeWithFiles builds a stack over explicit backing files. wal may be
// nil (legacy single-copy mode: no recovery log, no crash restart).
func newNodeWithFiles(f pagestore.File, wal walog.File, opts NodeOptions) (*Node, *walog.Log, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 4096
	}
	page, err := pagestore.Open(f, pagestore.Options{PoolPages: opts.PoolPages})
	if err != nil {
		return nil, nil, err
	}
	cat, err := catalog.Open(page, opts.GroupSize)
	if err != nil {
		return nil, nil, err
	}
	var l *walog.Log
	if wal != nil {
		l, err = walog.OpenFile(wal, walog.Options{})
		if err != nil {
			return nil, nil, err
		}
	}
	ts, err := tsstore.Open(page, cat, tsstore.Config{BatchSize: opts.BatchSize, Log: l})
	if err != nil {
		return nil, nil, err
	}
	rel, err := relational.Open(page, relational.ProfileRDB)
	if err != nil {
		return nil, nil, err
	}
	return &Node{Page: page, Cat: cat, TS: ts, Rel: rel, Engine: sqlexec.New(rel, ts)}, l, nil
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
	// Node configures each copy's storage stack.
	Node NodeOptions
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
// built.
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

type statsCounters struct {
	writesAcked, writeQuorumFailures, replicaWriteErrors atomic.Int64
	hintsQueued, hintsReplayed, hintsDeduped             atomic.Int64
	failovers, backoffs                                  atomic.Int64
	queries, partialQueries, aggGathers                  atomic.Int64
	kills, restarts                                      atomic.Int64
}

// Cluster is a set of shard copies with a source-hash router.
type Cluster struct {
	opts   Options
	legacy bool // NewWithFiles: external files, no WAL, no kill/restart

	nodes  []*nodeState
	shards [][]*shardCopy // [shard][replica]

	rngMu sync.Mutex
	rng   *rand.Rand

	stats statsCounters
}

// nodeState is the liveness view of one data server.
type nodeState struct {
	down    atomic.Bool
	stallNs atomic.Int64
}

// New builds an n-node in-process cluster with one copy per shard (no
// replication) — the pre-replication constructor, kept for single-copy
// deployments and tests.
func New(n int, opts NodeOptions) (*Cluster, error) {
	return NewReplicated(Options{Nodes: n, Node: opts})
}

// NewReplicated builds a cluster with opts.Replicas copies per shard.
func NewReplicated(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	opts = opts.withDefaults()
	c := &Cluster{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
	for i := 0; i < opts.Nodes; i++ {
		c.nodes = append(c.nodes, &nodeState{})
	}
	for s := 0; s < opts.Nodes; s++ {
		copies := make([]*shardCopy, opts.Replicas)
		for k := 0; k < opts.Replicas; k++ {
			cp, err := c.newReplicatedCopy(s, k, (s+k)%opts.Nodes)
			if err != nil {
				c.Close()
				return nil, err
			}
			copies[k] = cp
		}
		c.shards = append(c.shards, copies)
	}
	return c, nil
}

// NewWithFiles builds a single-copy cluster with one node per backing
// file, so tests can inject faults into individual data servers. Copies
// built this way carry no recovery log and cannot be killed/restarted.
func NewWithFiles(files []pagestore.File, opts NodeOptions) (*Cluster, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	o := Options{Nodes: len(files), Node: opts, ReplicaTimeout: -1}.withDefaults()
	c := &Cluster{opts: o, legacy: true, rng: rand.New(rand.NewSource(o.Seed))}
	for range files {
		c.nodes = append(c.nodes, &nodeState{})
	}
	for s, f := range files {
		n, _, err := newNodeWithFiles(f, nil, opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		cp := &shardCopy{shard: s, replica: 0, host: s, pageBack: f}
		cp.n.Store(n)
		c.shards = append(c.shards, []*shardCopy{cp})
	}
	return c, nil
}

// Close flushes and releases every live copy.
func (c *Cluster) Close() error {
	var first error
	for _, copies := range c.shards {
		for _, cp := range copies {
			if cp == nil {
				continue
			}
			n := cp.n.Load()
			if n == nil || c.nodes[cp.host].down.Load() {
				continue
			}
			if err := n.TS.Flush(); err != nil && first == nil {
				first = err
			}
			if err := n.Page.Close(); err != nil && first == nil {
				first = err
			}
			if wal := cp.wal.Load(); wal != nil {
				wal.Close()
			}
		}
	}
	return first
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Replicas returns the copy count per shard.
func (c *Cluster) Replicas() int { return c.opts.Replicas }

// Quorum returns the effective write quorum after defaulting (majority
// of Replicas unless configured).
func (c *Cluster) Quorum() int { return c.opts.WriteQuorum }

// Node returns node i's primary stack — the first copy of shard i, which
// lives on node i (for inspection in tests).
func (c *Cluster) Node(i int) *Node { return c.shards[i][0].n.Load() }

// shardOf routes a data source to its home shard.
func (c *Cluster) shardOf(source int64) int {
	h := uint64(source) * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return int(h % uint64(len(c.shards)))
}

// homeNode routes a data source to its home shard's primary stack.
func (c *Cluster) homeNode(source int64) *Node {
	return c.shards[c.shardOf(source)][0].n.Load()
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

// CreateSchema registers a schema type on every copy (metadata is
// replicated so any node can answer any query shape). Issue while
// healthy: metadata changes have no hinted handoff.
func (c *Cluster) CreateSchema(st model.SchemaType) error {
	return c.forEachCopy(func(cp *shardCopy) error {
		n := cp.n.Load()
		if n == nil {
			return &NodeError{Node: cp.host, Err: ErrNodeDown}
		}
		if _, err := n.Cat.CreateSchema(st); err != nil {
			return err
		}
		return c.checkpointMeta(cp, n)
	})
}

// checkpointMeta commits a copy's page store after a metadata change.
// Metadata is not covered by the point WAL, so a crash before the next
// flush would otherwise leave the copy's recovery log referencing
// sources its reopened catalog has never heard of. Metadata changes are
// rare; the synchronous checkpoint is the price of making them durable.
func (c *Cluster) checkpointMeta(cp *shardCopy, n *Node) error {
	if cp.walBack == nil {
		return nil // legacy copies have no crash/restart path
	}
	return n.Page.Flush()
}

// CreateVirtualTable registers the virtual table on every copy.
func (c *Cluster) CreateVirtualTable(table, schemaName string) error {
	return c.forEachCopy(func(cp *shardCopy) error {
		n := cp.n.Load()
		if n == nil {
			return &NodeError{Node: cp.host, Err: ErrNodeDown}
		}
		s, ok := n.Cat.SchemaByName(schemaName)
		if !ok {
			return fmt.Errorf("cluster: unknown schema %q", schemaName)
		}
		if err := n.Cat.CreateVirtualTable(table, s.ID); err != nil {
			return err
		}
		return c.checkpointMeta(cp, n)
	})
}

// RegisterSource registers the source's metadata on every copy; only the
// home shard's copies will ever hold its data. Explicit IDs are required
// so routing is stable across nodes.
func (c *Cluster) RegisterSource(ds model.DataSource) error {
	if ds.ID == 0 {
		return fmt.Errorf("cluster: sources must carry explicit ids")
	}
	return c.forEachCopy(func(cp *shardCopy) error {
		n := cp.n.Load()
		if n == nil {
			return &NodeError{Node: cp.host, Err: ErrNodeDown}
		}
		if _, ok := n.Cat.SchemaByID(ds.SchemaID); !ok {
			return fmt.Errorf("cluster: unknown schema %d", ds.SchemaID)
		}
		if _, err := n.Cat.RegisterSource(ds); err != nil {
			return err
		}
		return c.checkpointMeta(cp, n)
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
			c.stats.replicaWriteErrors.Add(1)
			errs = append(errs, &NodeError{Node: cp.host, Err: err})
			c.hint(cp, p)
			continue
		}
		acks++
	}
	if acks >= c.opts.WriteQuorum {
		c.stats.writesAcked.Add(1)
		return nil
	}
	c.stats.writeQuorumFailures.Add(1)
	return fmt.Errorf("%w: %d/%d acks: %w", ErrNoQuorum, acks, c.opts.WriteQuorum, joinNodeErrors(errs))
}

// Flush flushes every copy's ingest buffers and commits its page store
// before recycling its recovery log. A failing copy does not abort the
// sweep: healthy copies still flush, and the per-copy failures come back
// aggregated as NodeErrors — one dead data server degrades the cluster
// instead of wedging it.
func (c *Cluster) Flush() error {
	var errs []error
	c.forEachCopy(func(cp *shardCopy) error {
		n := cp.n.Load()
		if n == nil || c.nodes[cp.host].down.Load() {
			errs = append(errs, &NodeError{Node: cp.host, Err: ErrNodeDown})
			return nil
		}
		if err := n.TS.FlushWith(n.Page.Flush); err != nil {
			errs = append(errs, &NodeError{Node: cp.host, Err: err})
		}
		return nil
	})
	return joinNodeErrors(errs)
}

// ExecAll runs a DDL or DML statement on every copy (relational tables
// and their contents are replicated). Like Flush, it continues past
// failing copies and aggregates their errors, so replicas that can apply
// the statement do. There is no relational hinted handoff: a copy that
// misses a statement stays diverged until rebuilt.
func (c *Cluster) ExecAll(sql string) error {
	var errs []error
	c.forEachCopy(func(cp *shardCopy) error {
		n := cp.n.Load()
		if n == nil || c.nodes[cp.host].down.Load() {
			errs = append(errs, &NodeError{Node: cp.host, Err: ErrNodeDown})
			return nil
		}
		if _, err := n.Engine.Query(sql); err != nil {
			errs = append(errs, &NodeError{Node: cp.host, Err: err})
		}
		return nil
	})
	return joinNodeErrors(errs)
}

// Stats returns a snapshot of replication and failover counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		WritesAcked:         c.stats.writesAcked.Load(),
		WriteQuorumFailures: c.stats.writeQuorumFailures.Load(),
		ReplicaWriteErrors:  c.stats.replicaWriteErrors.Load(),
		HintsQueued:         c.stats.hintsQueued.Load(),
		HintsReplayed:       c.stats.hintsReplayed.Load(),
		HintsDeduped:        c.stats.hintsDeduped.Load(),
		Failovers:           c.stats.failovers.Load(),
		Backoffs:            c.stats.backoffs.Load(),
		Queries:             c.stats.queries.Load(),
		PartialQueries:      c.stats.partialQueries.Load(),
		AggGathers:          c.stats.aggGathers.Load(),
		Kills:               c.stats.kills.Load(),
		Restarts:            c.stats.restarts.Load(),
	}
}

// TotalTSStats sums the time-series store counters across every live
// copy — the cluster-wide view of ingest volume and of the summary-level
// aggregate pushdown (SummaryHits / BytesNotDecoded) working per shard.
// Down copies contribute nothing; their counters return after restart.
func (c *Cluster) TotalTSStats() tsstore.Stats {
	var total tsstore.Stats
	c.forEachCopy(func(cp *shardCopy) error {
		if n := cp.n.Load(); n != nil {
			s := n.TS.Stats()
			total.Add(&s)
		}
		return nil
	})
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
			Up:           cp.n.Load() != nil && !c.nodes[cp.host].down.Load(),
			PendingHints: cp.pendingHints.Load(),
			CatchingUp:   cp.catchingUp.Load(),
		})
		return nil
	})
	return out
}
