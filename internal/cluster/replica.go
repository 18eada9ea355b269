// Shard-copy lifecycle: construction, quorum-write plumbing, hinted
// handoff, crash (KillNode) / recovery (RestartNode + CatchUp), stall
// injection, and the cross-replica integrity check.
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odh"
	"odh/internal/fault"
	"odh/internal/model"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
	"odh/internal/walog"
)

// shardCopy is one replica of one shard: a historian over
// fault-injectable files whose inner backings survive simulated crashes.
type shardCopy struct {
	shard   int // shard index
	replica int // replica ordinal; 0 is the preferred read copy
	host    int // node hosting this copy

	// Inner backings of the page store and the recovery log; they survive
	// kill/restart.
	pageBack, walBack *pagestore.MemFile

	mu    sync.Mutex // serializes kill / restart / stall
	pageF *fault.File
	walF  *fault.File

	h atomic.Pointer[odh.Historian] // nil once killed

	// hints is the coordinator-side hinted-handoff log for this copy: one
	// one-point frame record (tsstore.LogFrame) per write the copy missed.
	// A copy with pending hints is stale — excluded from reads — until
	// CatchUp replays them. hintLost is set when a hint could not be
	// queued: the copy missed a write nothing remembers, so no catch-up
	// makes it whole and it stays stale until it is rebuilt from a peer.
	hints        *walog.Log
	hintMu       sync.Mutex
	pendingHints atomic.Int64
	catchingUp   atomic.Bool
	hintLost     atomic.Bool

	// inflight counts writes handed to timeout goroutines that have not
	// finished. Catch-up waits for it to reach zero so an abandoned slow
	// write can never land after the hint-replay dedup checked for it.
	inflight atomic.Int64
}

// newCopy builds copy k of shard s on the given host node over fresh
// in-memory backings.
func (c *Cluster) newCopy(s, k, host int) (*shardCopy, error) {
	hints, err := walog.OpenFile(pagestore.NewMemFile(), walog.Options{})
	if err != nil {
		return nil, err
	}
	cp := &shardCopy{
		shard:    s,
		replica:  k,
		host:     host,
		pageBack: pagestore.NewMemFile(),
		walBack:  pagestore.NewMemFile(),
		hints:    hints,
	}
	if err := c.openCopy(cp); err != nil {
		hints.Close()
		return nil, err
	}
	return cp, nil
}

// openCopy wraps the copy's backings in fresh fault files and opens a
// historian over them with the cluster's per-copy options; odh.Open
// recovers the last page checkpoint and replays the recovery log with
// dedup. The caller holds cp.mu or owns cp outright.
func (c *Cluster) openCopy(cp *shardCopy) error {
	opts := c.opts.Node
	pageF, walF := fault.Wrap(cp.pageBack), fault.Wrap(cp.walBack)
	opts.Backing, opts.WALBacking = pageF, walF
	h, err := odh.Open("", opts)
	if err != nil {
		return fmt.Errorf("cluster: open shard %d copy %d: %w", cp.shard, cp.replica, err)
	}
	cp.pageF, cp.walF = pageF, walF
	cp.h.Store(h)
	return nil
}

// live returns the copy's historian, or nil while its node is down
// (killed, or not yet through RestartNode).
func (c *Cluster) live(cp *shardCopy) *odh.Historian {
	if c.nodes[cp.host].down.Load() {
		return nil
	}
	return cp.h.Load()
}

// anyLive returns the first live copy's historian — enough for metadata
// lookups, since metadata is replicated — or nil when every node is down.
func (c *Cluster) anyLive() (h *odh.Historian) {
	c.forEachCopy(func(cp *shardCopy) error {
		if h == nil {
			h = c.live(cp)
		}
		return nil
	})
	return h
}

// writeCopy applies one point to a copy, observing liveness, injected
// stall, and the per-replica timeout. The point's value slice is cloned
// before any goroutine hand-off so a timed-out write can never race the
// caller's buffer reuse.
func (c *Cluster) writeCopy(cp *shardCopy, p model.Point) error {
	ns := c.nodes[cp.host]
	h := c.live(cp)
	if h == nil {
		return ErrNodeDown
	}
	if cp.stale() {
		// A stale copy takes new writes as hints, not directly: hints
		// replay in arrival order, so per-source ordering survives the
		// outage instead of interleaving old hinted points after new ones.
		return ErrReplicaStale
	}
	if c.opts.ReplicaTimeout <= 0 {
		c.stallGate(ns)
		return h.Writer().Write(p)
	}
	q := p
	q.Values = append([]float64(nil), p.Values...)
	cp.inflight.Add(1)
	return c.withTimeout(func() error {
		defer cp.inflight.Add(-1)
		c.stallGate(ns)
		return h.Writer().Write(q)
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
	cp.hintMu.Lock()
	defer cp.hintMu.Unlock()
	if err := tsstore.LogFrame(cp.hints, []model.Point{p}); err != nil {
		cp.hintLost.Store(true)
		return
	}
	cp.pendingHints.Add(1)
	atomic.AddInt64(&c.stats.HintsQueued, 1)
}

// stale reports whether a copy may be missing acked writes.
func (cp *shardCopy) stale() bool {
	return cp.pendingHints.Load() > 0 || cp.catchingUp.Load() || cp.hintLost.Load()
}

// readable reports whether a copy may answer reads: its node is up, its
// historian is open, and it has no pending hints (a stale copy could
// silently miss acked writes). The returned error explains exclusion.
func (c *Cluster) readable(cp *shardCopy) error {
	if c.live(cp) == nil {
		return ErrNodeDown
	}
	if cp.stale() {
		return ErrReplicaStale
	}
	return nil
}

// KillNode simulates a crash of node i: every fault on its copies' files
// is armed so in-flight I/O fails and nothing reaches the backing after
// the crash point, then the historians are closed — their final flush
// fails against the armed files, the recovery logs close — and dropped.
// Data durability follows the single-node model: last page-store
// checkpoint plus recovery-log replay.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	ns := c.nodes[i]
	if ns.down.Swap(true) {
		return nil // already down
	}
	atomic.AddInt64(&c.stats.Kills, 1)
	c.forEachCopy(func(cp *shardCopy) error {
		if cp.host != i {
			return nil
		}
		cp.mu.Lock()
		defer cp.mu.Unlock()
		for _, f := range []*fault.File{cp.pageF, cp.walF} {
			f.FailWritesAfter(0)
			f.FailReadsAfter(0)
			f.FailSyncsAfter(0)
		}
		if h := cp.h.Swap(nil); h != nil {
			_ = h.Close() // fails by design, against the files armed above
		}
		return nil
	})
	return nil
}

// RestartNode recovers node i after a kill: each hosted copy gets fresh
// fault wrappers over the surviving backings and a reopened historian (the
// page store recovers its last checkpoint, the recovery log truncates any
// torn tail and replays with dedup — a record whose point already reached
// a committed batch is skipped). Copies that missed writes while down stay
// stale until CatchUp drains their hints.
func (c *Cluster) RestartNode(i int) error {
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
		cp.mu.Lock()
		defer cp.mu.Unlock()
		if cp.h.Load() != nil {
			return nil // reopened by an earlier, partly failed restart
		}
		if cp.pendingHints.Load() > 0 {
			cp.catchingUp.Store(true)
		}
		if err := c.openCopy(cp); err != nil && firstErr == nil {
			firstErr = err
		}
		return nil
	})
	if firstErr != nil {
		return firstErr
	}
	ns.down.Store(false)
	atomic.AddInt64(&c.stats.Restarts, 1)
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
		cp.pageF.SetLatency(d)
		cp.walF.SetLatency(d)
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
	h := c.live(cp)
	if h == nil {
		return ErrNodeDown
	}
	cp.hintMu.Lock()
	defer cp.hintMu.Unlock()
	if !cp.stale() {
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
	replayed, deduped, err := h.ReplayLog(cp.hints)
	atomic.AddInt64(&c.stats.HintsReplayed, int64(replayed))
	atomic.AddInt64(&c.stats.HintsDeduped, int64(deduped))
	if err != nil {
		return err // copy stays stale; CatchUp can be retried
	}
	if err := cp.hints.Reset(); err != nil {
		return err
	}
	cp.pendingHints.Store(0)
	cp.catchingUp.Store(false)
	if cp.hintLost.Load() {
		return fmt.Errorf("%w: shard %d copy %d lost a hint and must be rebuilt from a peer", ErrReplicaStale, cp.shard, cp.replica)
	}
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
	h := c.live(cp)
	if h == nil {
		return 0, 0, ErrNodeDown
	}
	sum := fnv.New64a()
	rows := 0
	for _, table := range h.VirtualTables() {
		res, err := h.Query("SELECT * FROM " + table)
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
			fmt.Fprintln(sum, table, strings.Join(cells, "|"))
			rows++
		}
	}
	return sum.Sum64(), rows, nil
}

// CopyIntegrity is one copy's storage-level fsck.
type CopyIntegrity struct {
	Shard, Replica, Host int
	// Report is the copy's Historian.VerifyIntegrity (pages, trees,
	// blobs); nil when Err says why it could not run — ErrNodeDown for a
	// down copy, a flush or device failure otherwise.
	Report *odh.IntegrityReport
	Err    error
}

// OK reports whether the copy was checked and verified clean.
func (ci CopyIntegrity) OK() bool { return ci.Err == nil && ci.Report.OK() }

// VerifyCopies runs each copy's own fsck, down copies included: a copy
// that cannot be checked is a finding, not a gap in the list.
func (c *Cluster) VerifyCopies() []CopyIntegrity {
	var out []CopyIntegrity
	c.forEachCopy(func(cp *shardCopy) error {
		ci := CopyIntegrity{Shard: cp.shard, Replica: cp.replica, Host: cp.host}
		if h := c.live(cp); h == nil {
			ci.Err = ErrNodeDown
		} else {
			ci.Report, ci.Err = h.VerifyIntegrity()
		}
		out = append(out, ci)
		return nil
	})
	return out
}

// IntegrityReport is Verify's findings: every copy's storage-level fsck
// plus the cross-replica divergence check.
type IntegrityReport struct {
	// Copies has one entry per shard copy, in shard-then-replica order.
	Copies []CopyIntegrity
	// DivergentShards lists shards whose replica contents disagree.
	DivergentShards []ShardDivergence
	// SkippedCopies lists copies excluded from the divergence check (down
	// or awaiting catch-up) — expected to lag, not corrupt.
	SkippedCopies []string
}

// OK reports whether every copy verified clean and the replicas agree.
func (r *IntegrityReport) OK() bool {
	for _, ci := range r.Copies {
		if !ci.OK() {
			return false
		}
	}
	return len(r.DivergentShards) == 0
}

// String renders the fsck-style summary.
func (r *IntegrityReport) String() string {
	var b strings.Builder
	for _, ci := range r.Copies {
		fmt.Fprintf(&b, "shard %d copy %d on node %d: ", ci.Shard, ci.Replica, ci.Host)
		switch {
		case ci.Err != nil:
			fmt.Fprintf(&b, "NOT CHECKED: %v\n", ci.Err)
		case ci.Report.OK():
			fmt.Fprintf(&b, "%d pages, %d trees, %d blobs clean\n",
				ci.Report.PagesChecked, ci.Report.TreesChecked, ci.Report.BlobsChecked)
		default:
			fmt.Fprintf(&b, "DAMAGED\n%v\n", ci.Report)
		}
	}
	for _, d := range r.DivergentShards {
		fmt.Fprintf(&b, "divergent: shard %d: %s\n", d.Shard, d.Detail)
	}
	for _, s := range r.SkippedCopies {
		fmt.Fprintf(&b, "not compared: %s\n", s)
	}
	if r.OK() {
		b.WriteString("ok: replicas consistent, storage intact")
	} else {
		b.WriteString("integrity: FAILED")
	}
	return b.String()
}

// Verify fscks the cluster: each copy's pages, trees and blobs, then a
// cross-replica full-content comparison per shard. The error is non-nil
// only when the comparison itself cannot run.
func (c *Cluster) Verify() (*IntegrityReport, error) {
	rep := &IntegrityReport{Copies: c.VerifyCopies()}
	var err error
	if rep.DivergentShards, rep.SkippedCopies, err = c.VerifyReplicas(); err != nil {
		return nil, err
	}
	return rep, nil
}
