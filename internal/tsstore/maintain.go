package tsstore

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"odh/internal/catalog"
	"odh/internal/model"
)

// One planner runs every maintenance pass. The paper's Table 1 reorganizes
// low-frequency data ingested through MG into per-source RTS/IRTS batches
// for historical queries; around it, retention drops aged history,
// coalescing repairs the batches out-of-order ingest and MG overflow split,
// the tier lifecycle (tier.go) ages records hot → cold → stub, and the
// upgrade rewrites records older than the blob format. Each is a policy, a
// declarative target, and maintain rewrites one home toward it: under the
// home's latch it reads the home's records in the policy's key range once,
// classifies each from its header (blobSpan, BlobTier) and decodes only
// those it re-encodes, plans one change set per key range with every put
// under the collision rule (rangePlan.put), leaves out what it would put
// back byte for byte — so a second run of a policy plans nothing — and
// applies the plan through rewriteLocked. A home is what one latch covers
// (walk.go): a source's range of its tree, or a group's MG range with its
// members' ranges. A pass mutates B+tree pages that become durable only at
// the next checkpoint (Flush): a crash mid-pass recovers the previous one,
// every original record intact, and a failed pass surfaces its error for
// the caller to skip the checkpoint.

// MaintenanceResult summarizes one maintenance pass, whatever its policy.
type MaintenanceResult struct {
	// Records counts the records the pass read; Deleted and Rewritten those
	// it removed and stored (one rewritten in place counts in both, one
	// left as it was in neither), BytesBefore and BytesAfter their bytes.
	Records, Deleted, Rewritten int
	BytesBefore, BytesAfter     int64
	// Stubbed counts records truncated to stubs, Dropped records retention
	// removed, RowsMoved MG rows re-homed into their members' records, and
	// StatsMoved the key ranges whose statistics were re-derived and moved.
	Stubbed, Dropped, RowsMoved, StatsMoved int
}

// policy is the target a pass rewrites a home toward. A cutoff affects
// records whose rows end before it; math.MinInt64 turns its step off.
type policy struct {
	dropBefore int64 // retention (an MG record must end a group window earlier)
	reorgBelow int64 // MG records keyed below it move to their members' ranges
	coalesce   bool  // re-split the hot history when a hot record is under b/2 rows
	coldBefore int64 // recompact hot records into cold ones, split at stubBefore
	stubBefore int64
	upgrade    bool // re-encode at the current format, then re-derive statistics
}

var noMaintenance = policy{dropBefore: math.MinInt64, reorgBelow: math.MinInt64, coldBefore: math.MinInt64, stubBefore: math.MinInt64}

// Coalesce rewrites the hot history of every source of a schema so runs
// of undersized batches merge into full ones, restoring the b points per
// record that the data model's I/O amortization depends on after
// out-of-order ingest and MG overflow. Only a hot record under
// BatchSize/2 points triggers a source's rewrite.
func (s *Store) Coalesce(schemaID int64) (MaintenanceResult, error) {
	pol := noMaintenance
	pol.coalesce = true
	return s.run(pol, schemaID)
}

// TierSchema runs one lifecycle pass over every source of a schema: hot
// records whose rows end before now-ColdAfterMs recompact cold, records
// ending before now-StubAfterMs truncate to stubs — a record crossing both
// cutoffs in one call compacts before it stubs.
func (s *Store) TierSchema(schemaID int64, pol TierPolicy, now int64) (MaintenanceResult, error) {
	p := noMaintenance
	if pol.ColdAfterMs > 0 {
		p.coldBefore = now - pol.ColdAfterMs
	}
	if pol.StubAfterMs > 0 {
		p.stubBefore = now - pol.StubAfterMs
	}
	res, err := s.run(p, schemaID)
	atomic.AddInt64(&s.stats.TierBytesReclaimed, res.BytesBefore-res.BytesAfter)
	return res, err
}

// DropBefore deletes every persisted batch of a schema whose rows all lie
// before the cutoff — the retention pass. Batches straddling it are kept
// whole (retention is batch-granular, like the paper's storage model);
// stubs go like any record. Buffers are untouched: they hold recent data.
func (s *Store) DropBefore(schemaID int64, cutoff int64) (MaintenanceResult, error) {
	pol := noMaintenance
	pol.dropBefore = cutoff
	return s.run(pol, schemaID)
}

// Reorganize converts the MG records of every group of a schema keyed
// below upTo — also late ones below an earlier call's upTo — into
// per-source RTS/IRTS batches, typically with upTo = now minus the window
// slice queries read. Each group is one rewrite under its latch, so ingest
// and queries run throughout; slice queries keep reading the newer stripe
// from MG.
func (s *Store) Reorganize(schemaID int64, upTo int64) (MaintenanceResult, error) {
	pol := noMaintenance
	pol.reorgBelow = upTo
	return s.run(pol, schemaID)
}

// UpgradeBlobs rewrites in place every record written before the current
// blob format — no header summary, no sub-bucket block, or a column of
// more than segmentRows values in one piece — losslessly and in its tier,
// so aggregates fold it from its header and windows decode only their
// segments; stubs, unreadable records and current ones stay, and a
// row-oriented record (a removed layout) fails the pass with
// ErrCorruptBlob. It then re-derives every range's statistics from its
// records' headers: how a store written before
// the per-tier span bounds gets them, and the repair for statistics that
// drifted, were lost, or understate a record's reach. On a store marked as
// holding the current format only the repair has work to do.
func (s *Store) UpgradeBlobs() (MaintenanceResult, error) {
	pol := noMaintenance
	pol.upgrade = true
	var ids []int64
	for _, schema := range s.cat.Schemas() {
		ids = append(ids, schema.ID)
	}
	return s.run(pol, ids...)
}

// run runs pol over every home of the schemas: each source that ingests
// on its own, then each MG group with its members.
func (s *Store) run(pol policy, schemaIDs ...int64) (MaintenanceResult, error) {
	var res MaintenanceResult
	for _, id := range schemaIDs {
		for _, ds := range s.cat.OwnRecordSources(id) {
			if err := s.maintain(0, catalog.Group{Members: []*model.DataSource{ds}}, pol, &res); err != nil {
				return res, err
			}
		}
		for _, g := range s.cat.GroupsBySchema(id) {
			if err := s.maintain(g, s.cat.Group(g), pol, &res); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// maintain runs pol over one home: the per-source ranges of the members
// of g — one source that ingests on its own, or an MG group's — and,
// unless group is 0, the group's MG range, whose latch they share.
func (s *Store) maintain(group int64, g catalog.Group, pol policy, res *MaintenanceResult) error {
	var plans []*rangePlan // the per-source ranges, then the MG range
	for _, ds := range g.Members {
		if ds == nil {
			continue
		}
		if schema, ok := s.cat.SchemaByID(ds.SchemaID); ok {
			plans = append(plans, s.newPlan(s.treeFor(ds.HistoricalStructure()), ds.ID, ds, schema))
		}
	}
	owner, window := group, g.WindowMs
	if group != 0 {
		plans = append(plans, s.newPlan(s.mg, group, nil, nil))
	} else {
		owner = g.Members[0].ID
	}
	sh := s.shardFor(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, p := range plans {
		// A step touches only records keyed below hi: a record keyed at or
		// past a cutoff starts there and cannot end before it.
		p.lo, p.hi = math.MinInt64, max(pol.dropBefore, pol.coldBefore, pol.stubBefore)
		if p.ds == nil {
			p.hi = max(pol.reorgBelow, satSub(pol.dropBefore, window))
		}
		if pol.upgrade || (pol.coalesce && p.ds != nil) {
			p.hi = math.MaxInt64
		}
		recs, err := readRange(&home{tree: p.tree, id: p.id}, p.lo, p.hi)
		for _, r := range recs {
			p.old[r.ts] = r.blob
		}
		if res.Records += len(recs); err != nil {
			return err
		}
	}
	if group != 0 && pol.reorgBelow > math.MinInt64 {
		if err := s.reorganize(plans, g, pol.reorgBelow, res); err != nil {
			return err
		}
	}
	for _, p := range plans {
		if err := p.age(pol, window, res); err != nil {
			return err
		}
	}
	return s.apply(plans, res, pol.upgrade)
}

// reorganize plans the group's MG records keyed below upTo (plans ends in
// the group's range) into its members' per-source ranges: each row goes to
// the member its slot holds in g's table, as runs of the member's range
// (putRuns sorts them) put under the collision rule, and the records go. A
// record holding rows at a hole, or past the table, stays whole — its rows
// have no source to move to — and so does an unreadable one, for fsck.
func (s *Store) reorganize(plans []*rangePlan, g catalog.Group, upTo int64, res *MaintenanceResult) error {
	mg := plans[len(plans)-1]
	rows := make(map[int64][]model.Point, g.Live)
	for _, r := range mg.records() {
		if r.ts >= upTo {
			break
		}
		batch, err := DecodeBlob(r.blob, r.ts, nil)
		if err != nil || slices.ContainsFunc(batch.Slots, func(slot int) bool { return g.Member(slot) == nil }) {
			continue
		}
		for i, slot := range batch.Slots {
			src := g.Members[slot].ID
			rows[src] = append(rows[src], model.Point{Source: src, TS: batch.Timestamps[i], Values: batch.Rows[i]})
		}
		mg.now[r.ts] = nil
	}
	for _, p := range plans[:len(plans)-1] {
		if err := p.putRuns(rows[p.id], s.encodeOptsFor(p.schema), s.cfg.BatchSize); err != nil {
			return err
		}
		res.RowsMoved += len(rows[p.id])
	}
	return nil
}

// age runs, in order, the steps that rewrite a range's records where they
// are: retention; over a source's range coalescing and the cold and stub
// steps of the tier lifecycle; the upgrade.
func (p *rangePlan) age(pol policy, window int64, res *MaintenanceResult) (err error) {
	src, drop := p.ds != nil, pol.dropBefore
	if !src {
		drop = satSub(drop, window)
	}
	var hot, aged []stored
	small := false
	for _, r := range p.records() {
		rows, _, last, ok := blobSpan(r)
		if ok && last < drop {
			p.now[r.ts] = nil
			res.Dropped++
		} else if src && BlobTier(r.blob) == TierHot {
			hot = append(hot, r)
			small = small || int(rows)*2 < p.s.cfg.BatchSize
			if ok && last < pol.coldBefore {
				aged = append(aged, r)
			}
		}
	}
	// Coalescing re-splits the whole hot history into runs of BatchSize once
	// a hot record holds fewer than BatchSize/2 rows (a source's hot history
	// fits the maintenance window by assumption; huge ones drop or tier
	// first). The cold step recompacts the hot records ending before its
	// cutoff into cold records of ColdBatchFactor × BatchSize rows at
	// maximum codec effort, split at the stub cutoff so none straddles it
	// (the stub step would keep its rows forever); values round-trip
	// bit-exactly, since the inputs are what a scan returned and the cold
	// codecs are verified lossless. No policy asks for both at once.
	if pol.coalesce && small && len(hot) > 1 {
		_, err = p.recompact(hot, p.s.encodeOptsFor(p.schema), p.s.cfg.BatchSize, math.MinInt64)
	} else if len(aged) > 0 {
		var n int
		n, err = p.recompact(aged, p.s.coldOpts(p.schema), ColdBatchFactor*p.s.cfg.BatchSize, pol.stubBefore)
		atomic.AddInt64(&p.s.stats.ColdCompactions, int64(n))
	}
	if src && pol.stubBefore > math.MinInt64 {
		p.stub(pol.stubBefore, res)
	}
	if pol.upgrade {
		for _, r := range p.records() {
			if len(r.blob) > 0 && r.blob[0]&flagFreed != 0 {
				return p.corrupt(r.ts, "a row-oriented record, a blob layout no build reads any more")
			}
			if blob, ok := p.s.upgradedBlob(r); ok {
				p.now[r.ts] = blob
			}
		}
	}
	return err
}

// recompact replaces the records it decodes of recs with their rows re-put
// as runs of batchSize, split at splitAt, and returns how many it replaced.
func (p *rangePlan) recompact(recs []stored, opts encodeOpts, batchSize int, splitAt int64) (int, error) {
	picked, pts := decodeRecords(p.id, recs)
	for _, r := range picked {
		p.now[r.ts] = nil
	}
	cut := sort.Search(len(pts), func(i int) bool { return pts[i].TS >= splitAt })
	if err := p.putRuns(pts[:cut], opts, batchSize); err != nil {
		return len(picked), err
	}
	return len(picked), p.putRuns(pts[cut:], opts, batchSize)
}

// stub truncates the records whose rows end before the cutoff to summary-
// only stubs under the same key. Row counts stay in the catalog: the
// summary still answers COUNT/SUM/AVG, and partition elimination still
// needs the source's time range.
func (p *rangePlan) stub(before int64, res *MaintenanceResult) {
	for _, r := range p.records() {
		_, _, last, ok := blobSpan(r)
		if BlobTier(r.blob) == TierStub || !ok || last >= before {
			continue // already a stub, without a summary, or straddling: rows stay
		}
		if stub, ok := makeStubBlob(r.blob); ok {
			p.now[r.ts] = stub
			res.Stubbed++
			atomic.AddInt64(&p.s.stats.StubTransitions, 1)
		}
	}
}

// upgradedBlob returns r re-encoded at the current format, or false when r
// stays as it is: a stub (its rows are gone), an unreadable record, or one
// already current — also one whose re-encode would gain nothing. A v3
// record reads through the current decoder, its long columns as single
// segments, so no legacy reader exists.
func (s *Store) upgradedBlob(r stored) ([]byte, bool) {
	h, ok := parseBlobHeader(r.blob)
	if !ok || h.tier() == TierStub {
		return nil, false
	}
	if h.hasSummary() && (h.subOff != 0 || h.structure == blobMG) && h.segmented() {
		return nil, false
	}
	batch, err := h.decodeAll(r.ts, nil)
	if err != nil {
		return nil, false
	}
	// No per-tag policies: a lossy codec applied to values that already
	// went through one could move them again.
	opts := s.encodeOptsFor(nil)
	opts.cold = h.tier() == TierCold
	blob := h.reencode(batch, r.ts, opts)
	// A summarized, segmented blob may gain nothing: with no rows, or a span
	// past the writer's cap, it has no sub-bucket block at any format.
	nh, _ := parseBlobHeader(blob)
	return blob, !h.hasSummary() || nh.subOff != 0 || !h.segmented()
}
