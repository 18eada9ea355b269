// Shard-copy lifecycle: construction, quorum-write plumbing, hinted
// handoff, crash (KillNode) / recovery (RestartNode + CatchUp), stall
// injection, and the cross-replica integrity check.
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odh/internal/fault"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
	"odh/internal/walog"
)

// shardCopy is one replica of one shard: a full storage stack over
// fault-injectable files whose inner backings survive simulated crashes.
type shardCopy struct {
	shard   int // shard index
	replica int // replica ordinal; 0 is the preferred read copy
	host    int // node hosting this copy

	pageBack pagestore.File // inner backing; survives kill/restart
	walBack  walog.File     // inner backing of the recovery log; nil in legacy mode

	mu    sync.Mutex // serializes kill / restart
	pageF *fault.File
	walF  *fault.File

	n   atomic.Pointer[Node]
	wal atomic.Pointer[walog.Log]

	// hints is the coordinator-side hinted-handoff log for this copy:
	// WAL-point-encoded records the copy missed, in walog framing. A copy
	// with pending hints is stale — excluded from reads — until CatchUp
	// replays them.
	hints        *walog.Log
	hintMu       sync.Mutex
	pendingHints atomic.Int64
	catchingUp   atomic.Bool

	// inflight counts writes handed to timeout goroutines that have not
	// finished. Catch-up waits for it to reach zero so an abandoned slow
	// write can never land after the hint-replay dedup checked for it.
	inflight atomic.Int64
}

// newReplicatedCopy builds copy k of shard s on the given host node, with
// fresh in-memory backings wrapped in fault files and an attached
// recovery log.
func (c *Cluster) newReplicatedCopy(s, k, host int) (*shardCopy, error) {
	cp := &shardCopy{
		shard:    s,
		replica:  k,
		host:     host,
		pageBack: pagestore.NewMemFile(),
		walBack:  pagestore.NewMemFile(),
	}
	cp.pageF = fault.Wrap(cp.pageBack.(*pagestore.MemFile))
	cp.walF = fault.Wrap(cp.walBack.(*pagestore.MemFile))
	n, wal, err := newNodeWithFiles(cp.pageF, cp.walF, c.opts.Node)
	if err != nil {
		return nil, err
	}
	hints, err := walog.OpenFile(pagestore.NewMemFile(), walog.Options{})
	if err != nil {
		return nil, err
	}
	cp.hints = hints
	cp.n.Store(n)
	cp.wal.Store(wal)
	return cp, nil
}

// writeCopy applies one point to a copy, observing liveness, injected
// stall, and the per-replica timeout. The point's value slice is cloned
// before any goroutine hand-off so a timed-out write can never race the
// caller's buffer reuse.
func (c *Cluster) writeCopy(cp *shardCopy, p model.Point) error {
	ns := c.nodes[cp.host]
	if ns.down.Load() {
		return ErrNodeDown
	}
	if cp.pendingHints.Load() > 0 || cp.catchingUp.Load() {
		// A stale copy takes new writes as hints, not directly: hints
		// replay in arrival order, so per-source ordering survives the
		// outage instead of interleaving old hinted points after new ones.
		return ErrReplicaStale
	}
	n := cp.n.Load()
	if n == nil {
		return ErrNodeDown
	}
	if c.opts.ReplicaTimeout <= 0 {
		c.stallGate(ns)
		return n.TS.Write(p)
	}
	q := p
	q.Values = append([]float64(nil), p.Values...)
	cp.inflight.Add(1)
	return c.withTimeout(func() error {
		defer cp.inflight.Add(-1)
		c.stallGate(ns)
		return n.TS.Write(q)
	})
}

// stallGate sleeps for the node's injected stall, modeling a hung data
// server even for operations that never touch its files.
func (c *Cluster) stallGate(ns *nodeState) {
	if d := ns.stallNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// stallGateCtx is stallGate for the read path: a cancelled query must
// not sit out a hung node's stall, so the sleep races ctx.
func (c *Cluster) stallGateCtx(ctx context.Context, ns *nodeState) error {
	if d := ns.stallNs.Load(); d > 0 {
		return sleepCtx(ctx, time.Duration(d))
	}
	return ctx.Err()
}

// withTimeout bounds op by ReplicaTimeout. On timeout the operation keeps
// running in its abandoned goroutine (its effect, if any, is handled by
// hint dedup); the caller gets ErrReplicaTimeout.
func (c *Cluster) withTimeout(op func() error) error {
	d := c.opts.ReplicaTimeout
	if d <= 0 {
		return op()
	}
	done := make(chan error, 1)
	go func() { done <- op() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return ErrReplicaTimeout
	}
}

// hint queues a hinted-handoff record for a copy that missed a write. A
// timed-out write is hinted too — it may have landed, and catch-up dedups
// reapplication — so "hinted" is conservative: the copy is stale until
// proven caught-up, never silently short.
func (c *Cluster) hint(cp *shardCopy, p model.Point) {
	if cp.hints == nil {
		return
	}
	cp.hintMu.Lock()
	defer cp.hintMu.Unlock()
	if err := cp.hints.Append(tsstore.EncodePointWAL(p)); err == nil {
		cp.pendingHints.Add(1)
		c.stats.hintsQueued.Add(1)
	}
}

// readable reports whether a copy may answer reads: its node is up, its
// stack is open, and it has no pending hints (a stale copy could silently
// miss acked writes). The returned error explains exclusion.
func (c *Cluster) readable(cp *shardCopy) error {
	if c.nodes[cp.host].down.Load() || cp.n.Load() == nil {
		return ErrNodeDown
	}
	if cp.pendingHints.Load() > 0 || cp.catchingUp.Load() {
		return ErrReplicaStale
	}
	return nil
}

// KillNode simulates a crash of node i: every fault on its copies' files
// is armed so in-flight I/O fails and nothing reaches the backing after
// the crash point, the recovery logs' writer goroutines stop, and the
// stacks are dropped. Data durability follows the single-node model: last
// page-store checkpoint plus recovery-log replay.
func (c *Cluster) KillNode(i int) error {
	if c.legacy {
		return fmt.Errorf("cluster: kill/restart requires a replicated cluster")
	}
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	ns := c.nodes[i]
	if ns.down.Swap(true) {
		return nil // already down
	}
	c.stats.kills.Add(1)
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host != i {
			return nil
		}
		cp.mu.Lock()
		defer cp.mu.Unlock()
		if cp.pageF != nil {
			cp.pageF.FailWritesAfter(0)
			cp.pageF.FailReadsAfter(0)
			cp.pageF.FailSyncsAfter(0)
		}
		if cp.walF != nil {
			cp.walF.FailWritesAfter(0)
			cp.walF.FailReadsAfter(0)
			cp.walF.FailSyncsAfter(0)
		}
		if wal := cp.wal.Load(); wal != nil {
			wal.Close() // in-flight appends fail against the armed file
		}
		cp.n.Store(nil)
		cp.wal.Store(nil)
		return nil
	})
	return nil
}

// RestartNode recovers node i after a kill: each hosted copy gets fresh
// fault wrappers over the surviving backings and a reopened stack (the
// page store recovers its last checkpoint, the recovery log truncates any
// torn tail), then replays its recovery log with dedup — a record whose
// point already reached a committed batch is skipped. Copies that missed
// writes while down stay stale until CatchUp drains their hints.
func (c *Cluster) RestartNode(i int) error {
	if c.legacy {
		return fmt.Errorf("cluster: kill/restart requires a replicated cluster")
	}
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	ns := c.nodes[i]
	if !ns.down.Load() {
		return nil
	}
	var firstErr error
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host != i {
			return nil
		}
		if err := c.reopenCopy(cp); err != nil && firstErr == nil {
			firstErr = err
		}
		return nil
	})
	if firstErr != nil {
		return firstErr
	}
	ns.down.Store(false)
	c.stats.restarts.Add(1)
	return nil
}

// reopenCopy rebuilds one copy's stack from its backing files after a
// simulated crash.
func (c *Cluster) reopenCopy(cp *shardCopy) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.pendingHints.Load() > 0 {
		cp.catchingUp.Store(true)
	}
	pageF := fault.Wrap(cp.pageBack.(*pagestore.MemFile))
	walF := fault.Wrap(cp.walBack.(*pagestore.MemFile))
	n, wal, err := newNodeWithFiles(pageF, walF, c.opts.Node)
	if err != nil {
		return fmt.Errorf("cluster: restart shard %d copy %d: %w", cp.shard, cp.replica, err)
	}
	if _, _, err := n.TS.ReplayDedup(wal, n.TS.WriteRecovered); err != nil {
		return fmt.Errorf("cluster: replay shard %d copy %d: %w", cp.shard, cp.replica, err)
	}
	cp.pageF, cp.walF = pageF, walF
	cp.wal.Store(wal)
	cp.n.Store(n)
	return nil
}

// StallNode injects latency d into node i: every file operation of its
// copies sleeps d, and so does every cluster-dispatched operation — a
// hung node, which per-replica timeouts then turn into failover instead
// of a hung cluster. HealNode removes the stall.
func (c *Cluster) StallNode(i int, d time.Duration) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	c.nodes[i].stallNs.Store(int64(d))
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host != i {
			return nil
		}
		cp.mu.Lock()
		defer cp.mu.Unlock()
		if cp.pageF != nil {
			cp.pageF.SetLatency(d)
		}
		if cp.walF != nil {
			cp.walF.SetLatency(d)
		}
		return nil
	})
	return nil
}

// HealNode removes node i's injected stall.
func (c *Cluster) HealNode(i int) error { return c.StallNode(i, 0) }

// CatchUp replays the hinted-handoff records of every copy hosted on
// node i, deduplicating against points the copy already has (applied
// before a crash, or by a write that timed out at the coordinator but
// finished anyway). Once a copy's hints drain it becomes readable again.
func (c *Cluster) CatchUp(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	var firstErr error
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host != i {
			return nil
		}
		if err := c.catchUpCopy(cp); err != nil && firstErr == nil {
			firstErr = err
		}
		return nil
	})
	return firstErr
}

func (c *Cluster) catchUpCopy(cp *shardCopy) error {
	if cp.hints == nil {
		return nil
	}
	if c.nodes[cp.host].down.Load() {
		return ErrNodeDown
	}
	n := cp.n.Load()
	if n == nil {
		return ErrNodeDown
	}
	cp.hintMu.Lock()
	defer cp.hintMu.Unlock()
	if cp.pendingHints.Load() == 0 && !cp.catchingUp.Load() {
		return nil
	}
	// Wait out abandoned timed-out writes: one could otherwise apply its
	// point after the dedup below checked for it, duplicating the point.
	deadline := time.Now().Add(4 * c.opts.ReplicaTimeout)
	for cp.inflight.Load() > 0 {
		if c.opts.ReplicaTimeout > 0 && time.Now().After(deadline) {
			return fmt.Errorf("%w: writes still in flight", ErrReplicaTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	// Replay through the normal write path so replayed hints are
	// themselves protected by the copy's recovery log.
	replayed, deduped, err := n.TS.ReplayDedup(cp.hints, n.TS.Write)
	c.stats.hintsReplayed.Add(int64(replayed))
	c.stats.hintsDeduped.Add(int64(deduped))
	if err != nil {
		return err // copy stays stale; CatchUp can be retried
	}
	if err := cp.hints.Reset(); err != nil {
		return err
	}
	cp.pendingHints.Store(0)
	cp.catchingUp.Store(false)
	return nil
}

// ShardDivergence reports replicas of one shard whose full-scan contents
// disagree.
type ShardDivergence struct {
	Shard  int
	Detail string
}

// VerifyReplicas compares every shard's copies by scanning each virtual
// table's full contents on each readable copy and fingerprinting the
// rows. Copies of the same shard must agree byte-for-byte (same points,
// same per-source order); stale or down copies are reported as notes, not
// divergence — they are expected to lag until catch-up.
func (c *Cluster) VerifyReplicas() (divergent []ShardDivergence, notes []string, err error) {
	for s, copies := range c.shards {
		if len(copies) < 2 {
			continue
		}
		type fp struct {
			replica int
			sum     uint64
			rows    int
		}
		var fps []fp
		for _, cp := range copies {
			if rerr := c.readable(cp); rerr != nil {
				notes = append(notes, fmt.Sprintf("shard %d copy %d on node %d skipped: %v", s, cp.replica, cp.host, rerr))
				continue
			}
			sum, rows, ferr := c.fingerprintCopy(cp)
			if ferr != nil {
				return nil, notes, fmt.Errorf("cluster: fingerprint shard %d copy %d: %w", s, cp.replica, ferr)
			}
			fps = append(fps, fp{replica: cp.replica, sum: sum, rows: rows})
		}
		for i := 1; i < len(fps); i++ {
			if fps[i].sum != fps[0].sum {
				divergent = append(divergent, ShardDivergence{
					Shard: s,
					Detail: fmt.Sprintf("copy %d (%d rows, %016x) != copy %d (%d rows, %016x)",
						fps[i].replica, fps[i].rows, fps[i].sum, fps[0].replica, fps[0].rows, fps[0].sum),
				})
				break
			}
		}
	}
	return divergent, notes, nil
}

// fingerprintCopy hashes the full contents of every virtual table on one
// copy, row order included.
func (c *Cluster) fingerprintCopy(cp *shardCopy) (uint64, int, error) {
	n := cp.n.Load()
	if n == nil {
		return 0, 0, ErrNodeDown
	}
	h := fnv.New64a()
	rows := 0
	tables := n.Cat.VirtualTables()
	sort.Strings(tables)
	for _, table := range tables {
		// The TS column name is per-schema (TSName overrides "timestamp").
		st, ok := n.Cat.VirtualTable(table)
		if !ok {
			return 0, 0, fmt.Errorf("fingerprint: virtual table %q vanished", table)
		}
		res, err := n.Engine.Query(fmt.Sprintf(
			"SELECT * FROM %s WHERE %s >= %d AND %s <= %d",
			table, st.TSColumn(), -int64(1)<<62, st.TSColumn(), int64(1)<<62))
		if err != nil {
			return 0, 0, err
		}
		all, err := res.FetchAll()
		if err != nil {
			return 0, 0, err
		}
		for _, row := range all {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Fprintln(h, table, strings.Join(cells, "|"))
			rows++
		}
	}
	return h.Sum64(), rows, nil
}

// VerifyCopies runs the storage-level integrity checks (page graph, blob
// decode) on every readable copy, returning the number of copies checked
// and any problems found.
func (c *Cluster) VerifyCopies() (checked int, problems []string, err error) {
	cerr := c.forEachCopy(func(cp *shardCopy) error {
		n := cp.n.Load()
		if n == nil || c.nodes[cp.host].down.Load() {
			problems = append(problems, fmt.Sprintf("shard %d copy %d on node %d: down", cp.shard, cp.replica, cp.host))
			return nil
		}
		if err := n.TS.Flush(); err != nil {
			problems = append(problems, fmt.Sprintf("shard %d copy %d: flush: %v", cp.shard, cp.replica, err))
			return nil
		}
		if err := n.Page.Flush(); err != nil {
			problems = append(problems, fmt.Sprintf("shard %d copy %d: page flush: %v", cp.shard, cp.replica, err))
			return nil
		}
		if _, corruptPages, perr := n.Page.VerifyPages(); perr != nil {
			problems = append(problems, fmt.Sprintf("shard %d copy %d: page walk: %v", cp.shard, cp.replica, perr))
		} else {
			for _, pid := range corruptPages {
				problems = append(problems, fmt.Sprintf("shard %d copy %d: corrupt page %v", cp.shard, cp.replica, pid))
			}
		}
		nblobs, corrupt, berr := n.TS.VerifyBlobs()
		if berr != nil {
			problems = append(problems, fmt.Sprintf("shard %d copy %d: blob walk: %v", cp.shard, cp.replica, berr))
		}
		for _, ref := range corrupt {
			problems = append(problems, fmt.Sprintf("shard %d copy %d: corrupt blob %v", cp.shard, cp.replica, ref))
		}
		_ = nblobs
		checked++
		return nil
	})
	if cerr != nil {
		return checked, problems, cerr
	}
	return checked, problems, nil
}
