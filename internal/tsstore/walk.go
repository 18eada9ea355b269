package tsstore

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"odh/internal/btree"
	"odh/internal/catalog"
	"odh/internal/keyenc"
	"odh/internal/model"
)

// The record walker is the only reader of the three batch trees — but for
// the write path's own reads (readRange, rangePlan.at) under the owner's
// exclusive latch — and rewriteLocked (rewrite.go), which only apply calls,
// their only writer. The rule between the two:
//
// Every row belongs to one owner — its source, or its MG group when the
// source ingests through MG — and the owner's shard latch covers all of
// the owner's homes: the ingest buffer and its key ranges in the batch
// trees (for a group: the ts.mg records, the group buffer, and every
// member's reorganized ts.rts/ts.irts range). A rewrite holds the latch
// exclusively, so it is atomic to a walker step, which holds it shared.
// A step copies what it hands out — buffered rows and the bytes of the
// records the chunk keeps, overflow chains included, into a buffer the
// walker owns — and reads no tree page past the latch; the next step
// resumes by timestamp: every row below `from` was handed out, none at or
// above it. Flush, MG merge, coalescing, cold compaction and
// reorganization move rows between records and homes but never change a
// row's timestamp, so a walk racing them still hands out every row exactly
// once. The latch is never held while the consumer runs, so a slow client
// cannot stall ingest.
//
// What a step reads of a record: the first page once — an inline value
// whole, else the first chunk of its overflow chain — which is where the
// chunk's prune (rows that end before the window) and an MG member walk's
// drop (a member bitmap without it) are decided, on a header parsed once;
// of a record kept, then the rest of its prefix, following the chain on
// from page two: the header, what the structure keeps in front of its
// columns and the columns through the last tag the walk wants
// (blobHeader.wantedLen). A walk of every tag, and a record whose prefix
// its bytes cannot tell (an unsegmented IRTS timestamp stream), read
// whole. Nothing behind the prefix is read, so damage there fails no walk
// that does not want it; Stats.BytesNotRead counts those bytes. Costs
// still count the stored length (Cursor.ValueSize): the planner's unit,
// the cache's and the step budget do not depend on how much was read.
// Successive seeks of one walk, and of the next walker of a list, which
// the walker before it hands its scratch, reuse the cursor's leaf snapshot
// while the tree is unchanged (btree.Cursor.Reset).

// stepBytes is the encoded record bytes after which a step looks for a
// place to end, so long walks re-seek about once per this many bytes. A
// step ends where no record it handed out reaches across — a record split
// by a chunk window could not fold from its summary, and a split stub
// could not be answered at all — and gives up looking for such a place
// (overlapping out-of-order batches can chain) after maxStepBytes.
const (
	stepBytes    = 128 << 10
	maxStepBytes = 8 * stepBytes
)

// home is one key range an owner's rows can live in: a prefix of one
// batch tree.
type home struct {
	tree *btree.Tree
	id   int64 // source id, or group id in ts.mg
	seq  int   // position among the walker's homes; the buffer comes last
	span int64 // bound on how far a record's rows reach past its key
}

// walker hands out one owner's records over [t1, t2) in base-timestamp
// order, chunk by chunk. Not safe for concurrent use.
type walker struct {
	s       *Store
	sh      *shard // the owner's latch
	owner   int64
	homes   []home
	buffer  home          // the pseudo-home of buffered rows
	group   catalog.Group // MG owners: the group's window and member table
	covered int           // MG owners: every slot below it holds a member
	slot    int           // MG owners: restrict MG and buffered rows to this member's slot, or allMembers
	t2      int64
	from    int64 // resume point; rows in [from, t2) remain
	started bool  // a step has run: records keyed below from were met before
	done    bool

	// What the walk did so far: records take dropped on their header's
	// word, records decoded and the rows those decodes materialised.
	dropped, decoded, decodedRows int

	ctx      context.Context // nil = never canceled
	cache    *blobCache      // nil = bypass
	sig      string          // cache variant: canonical wantTags signature
	wantTags []int

	*walkScratch // held from the first step until release
}

// walkScratch is the memory a walker's steps reuse: a chunk dies at the
// next step, and its backing, the bytes of its records and the cursors
// (leaf snapshots, seek keys) that gathered it are the next chunk's. A
// walker is short-lived — a slice opens one per source — so the scratch
// outlives it: release hands it to the next walker of the list, and the
// list's last walker (or one of a parallel aggregate's goroutines) to the
// pool, for the next query.
type walkScratch struct {
	recs  []walkRec // chunk backing
	buf   []byte    // the bytes of the chunk's records
	curs  []recCursor
	batch DecodedBatch // an aggregate's decodes, each folded before the next
}

var scratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

// release gives the scratch up: to next, the walker after this one in a
// list walked in turn, or with next nil to the pool. The consumer calls it
// when it is through with the last chunk; nothing a chunk handed out is
// valid after it.
func (w *walker) release(next *walker) {
	if w.walkScratch == nil {
		return
	}
	clear(w.recs[:cap(w.recs)]) // cache entries, buffered rows
	if next != nil {
		next.walkScratch = w.walkScratch
	} else {
		scratchPool.Put(w.walkScratch)
	}
	w.walkScratch = nil
}

// after returns the walker after ws[i], or nil for the last.
func after(ws []*walker, i int) *walker {
	if i+1 < len(ws) {
		return ws[i+1]
	}
	return nil
}

// walkRec is one record a step handed out: the cached decode when the
// cache had it, else the step's copy of the stored bytes; or, as a
// pseudo-record, the owner's buffered rows of the chunk window.
type walkRec struct {
	home     *home
	ts       int64  // base timestamp (the key's time part); rows are >= ts
	blob     []byte // the bytes read: the record through its prefix
	stored   int64  // the record's stored length (Cursor.ValueSize): the cost unit, however much was read
	hit      *cacheEntry
	ver      uint64 // cache insert guard, read under the latch with the bytes
	buffered []model.Point
	// hdr is the record's header, parsed once when the record is taken (the
	// cached one on a hit): every skip, fold and decode below asks it.
	hdr blobHeader
}

// chunk is the output of one step: every row of the owner with
// lo <= ts < hi lives in exactly one of recs. Records may carry rows
// outside the window (consumers filter); recs is sorted by ts.
type chunk struct {
	lo, hi int64
	recs   []walkRec
}

// walkerList builds the walkers of one list in one allocation, each a copy
// of the list's template — the window, the tags, the cache and the cache
// signature of the tags, computed once for the list — that newWalker
// stamps with its owner. A source walker's home comes from the list too.
type walkerList struct {
	tmpl  walker
	arr   []walker
	homes []home
	ws    []*walker
}

// newWalkerList readies a list of at most n walkers, at most n of them of
// one home.
func (s *Store) newWalkerList(n int, t1, t2 int64, wantTags []int, opts ScanOptions) *walkerList {
	l := &walkerList{arr: make([]walker, 0, n), homes: make([]home, 0, n), ws: make([]*walker, 0, n),
		tmpl: walker{s: s, slot: allMembers, from: t1, t2: t2, done: t1 >= t2,
			ctx: opts.Ctx, cache: s.scanCache(opts), wantTags: wantTags}}
	if l.tmpl.cache != nil {
		l.tmpl.sig = tagsSig(wantTags)
	}
	return l
}

func (l *walkerList) newWalker(owner int64) *walker {
	l.arr = append(l.arr, l.tmpl)
	w := &l.arr[len(l.arr)-1]
	w.sh, w.owner = l.tmpl.s.shardFor(owner), owner
	l.ws = append(l.ws, w)
	return w
}

// sourceWalker adds a walker of every home of one source's rows.
func (l *walkerList) sourceWalker(ds *model.DataSource) {
	if ds.IngestStructure() == model.MG {
		l.groupWalker(ds.Group, ds)
		return
	}
	w := l.newWalker(ds.ID)
	l.homes = append(l.homes, home{tree: l.tmpl.s.treeFor(ds.IngestStructure()), id: ds.ID})
	w.homes = l.homes[len(l.homes)-1:]
}

// groupWalker adds a walker of an MG group's rows, all members' or, unless
// only is nil, only that member's: reorganized history and the repeats of
// a timestamp a member has open in the buffer (see writeMG) live per
// source in RTS/IRTS, the rest in the group's MG records and buffer. A walk
// of one member decodes its row of an MG record and nothing else of it,
// and drops a record without the member on its head.
func (l *walkerList) groupWalker(group int64, only *model.DataSource) {
	s := l.tmpl.s
	w := l.newWalker(group)
	w.group = s.cat.Group(group)
	if w.covered = slices.Index(w.group.Members, nil); w.covered < 0 {
		w.covered = len(w.group.Members)
	}
	if only != nil {
		w.slot = only.GroupSlot
		w.homes = []home{{tree: s.treeFor(only.HistoricalStructure()), id: only.ID}}
	} else {
		for _, m := range w.group.Members {
			if m != nil {
				w.homes = append(w.homes, home{tree: s.treeFor(m.HistoricalStructure()), id: m.ID, seq: len(w.homes)})
			}
		}
	}
	w.homes = append(w.homes, home{tree: s.mg, id: group, seq: len(w.homes)})
}

// treeID maps a batch tree to its cache namespace.
func (s *Store) treeID(tree *btree.Tree) uint8 {
	switch tree {
	case s.rts:
		return cacheTreeRTS
	case s.irts:
		return cacheTreeIRTS
	default:
		return cacheTreeMG
	}
}

// recCursor walks one home's records with base timestamp in [lo, hi).
// It is the only user of btree cursors on the batch trees; reopening one
// reuses its leaf snapshot and key buffers.
type recCursor struct {
	home   *home
	cur    btree.Cursor
	lo, hi []byte
	ts     int64 // base timestamp under the cursor, when ok
	ok     bool
}

func (c *recCursor) open(h *home, lo, hi int64) error {
	c.home = h
	c.lo = keyenc.AppendSourceTime(c.lo[:0], h.id, lo)
	c.hi = keyenc.AppendSourceTime(c.hi[:0], h.id, hi)
	c.cur.Reset(h.tree, c.lo)
	return c.settle()
}

// settle decodes the key under the cursor; ok turns false past the range.
func (c *recCursor) settle() error {
	c.ok = false
	if !c.cur.Valid() {
		return c.cur.Err()
	}
	key := c.cur.Key()
	if bytes.Compare(key, c.hi) >= 0 {
		return nil
	}
	_, ts, err := keyenc.DecodeSourceTime(key)
	if err != nil {
		return err
	}
	c.ts, c.ok = ts, true
	return nil
}

func (c *recCursor) next() error {
	c.cur.Next()
	return c.settle()
}

// readRange returns the records of one home keyed in [lo, hi) — the
// maintenance read, which keeps what it reads: every blob is its own copy.
// The caller holds the home's latch exclusively.
func readRange(h *home, lo, hi int64) ([]stored, error) {
	var c recCursor
	err := c.open(h, lo, hi)
	var recs []stored
	for err == nil && c.ok {
		var blob []byte
		if blob, err = c.cur.AppendValue(nil); err == nil {
			recs = append(recs, stored{ts: c.ts, blob: blob})
			err = c.next()
		}
	}
	return recs, err
}

// satSub is a - b saturating at math.MinInt64 (b >= 0).
func satSub(a, b int64) int64 {
	if a < math.MinInt64+b {
		return math.MinInt64
	}
	return a - b
}

// step hands out the next chunk. After the last chunk w.done is true.
func (w *walker) step() (chunk, error) {
	if w.walkScratch == nil {
		w.walkScratch = scratchPool.Get().(*walkScratch)
	}
	ch := chunk{lo: w.from, hi: w.t2, recs: w.recs[:0]}
	w.buf = w.buf[:0]
	err := ctxErr(w.ctx)
	if err == nil {
		w.sh.mu.RLock()
		if err = w.gather(&ch); err == nil {
			w.addBuffered(&ch)
		}
		w.sh.mu.RUnlock()
	}
	w.started = true
	w.recs = ch.recs
	w.from = ch.hi
	w.done = err != nil || ch.hi >= w.t2
	return ch, err
}

// gather merges the homes' cursors by base timestamp into ch.recs and
// cuts the chunk at the first record left behind: its rows, like those of
// every later record, are >= its key. Caller holds the latch.
func (w *walker) gather(ch *chunk) error {
	n := 0
	for i := range w.homes {
		h := &w.homes[i]
		// A record keyed before lo can still spill rows into the window: by
		// one window for MG records, else by what the home's statistics say
		// of every record ever put (SourceStats.Covers) — a non-hot record
		// reaches lo only when keyed in [lo-MaxSpanMs, ColdLastTS], a hot one
		// only when keyed at or after lo-HotSpanMs. Statistics the catalog
		// could not read eliminate nothing and bound nothing. The seek starts
		// a millisecond before either bound.
		lookback := w.group.WindowMs
		if h.tree != w.s.mg {
			st := w.s.cat.Stats(h.id)
			switch {
			case st.Unknown:
				lookback = math.MaxInt64
			case st.BatchCount <= 0 || (st.PointCount > 0 && (st.LastTS < ch.lo || st.FirstTS >= w.t2)):
				continue // partition elimination: nothing persisted in range
			default:
				lookback = st.MaxSpanMs
				if !st.HasCold || st.ColdLastTS < satSub(ch.lo, lookback+1) {
					lookback = st.HotSpanMs
				}
				if lookback > 0 {
					lookback++
				}
			}
		}
		h.span = lookback
		if n == len(w.curs) {
			w.curs = append(w.curs, recCursor{})
		}
		if err := w.curs[n].open(h, satSub(ch.lo, lookback), w.t2); err != nil {
			return err
		}
		n++
	}
	curs := w.curs[:n]
	var taken int64
	reach, reached := int64(math.MinInt64), 0 // latest row timestamp of recs[:reached]
	for {
		var c *recCursor
		for i := range curs {
			if curs[i].ok && (c == nil || curs[i].ts < c.ts) {
				c = &curs[i]
			}
		}
		if c == nil {
			return nil
		}
		if taken >= stepBytes && c.ts > ch.lo {
			for ; reached < len(ch.recs); reached++ {
				reach = max(reach, ch.recs[reached].lastTS())
			}
			if c.ts > reach || taken >= maxStepBytes {
				ch.hi = c.ts
				for n := len(ch.recs); n > 0 && ch.recs[n-1].ts >= ch.hi; n-- {
					ch.recs = ch.recs[:n-1] // another home's record at the cut itself
				}
				return nil
			}
		}
		// Taken in place: a record carries its parsed header, too large to
		// be worth copying around.
		ch.recs = append(ch.recs, walkRec{home: c.home, ts: c.ts})
		rec := &ch.recs[len(ch.recs)-1]
		keep, err := w.take(c, rec, ch.lo)
		if err != nil {
			return err
		}
		if keep {
			taken += rec.stored
		} else {
			ch.recs = ch.recs[:len(ch.recs)-1]
		}
		if err := c.next(); err != nil {
			return err
		}
	}
}

// take reads the record under the cursor into rec and reports whether the
// chunk keeps it. A record whose rows all end before lo — one an earlier
// step handed out, or one the lookback reached — and, in a walk of one MG
// member, an MG record whose member bitmap lacks it are dropped on their
// header's word, whatever the payload holds: no consumer ever sees them,
// and of their bytes only the first page is read (copied nowhere that
// outlives this call). A kept record's bytes go to the step's buffer, as
// far as the walk reads them.
func (w *walker) take(c *recCursor, rec *walkRec, lo int64) (keep bool, err error) {
	if w.cache != nil {
		rec.hit, rec.ver = w.cache.get(blobKey{tree: w.s.treeID(c.home.tree), source: c.home.id, ts: c.ts}, w.sig)
	}
	if rec.hit != nil {
		rec.hdr, rec.stored = rec.hit.hdr, rec.hit.blobLen
	} else if keep, err := w.read(c, rec, lo); !keep || err != nil {
		if err != nil && w.s.cfg.LenientScan {
			// An unreadable value is quarantined in lenient mode; a broken
			// tree walk still aborts, since the cursor cannot pass it.
			// Counted once, by the step that first met the record: later
			// steps look back over it again.
			if !w.started || c.ts >= lo {
				atomic.AddInt64(&w.s.stats.CorruptBlobsSkipped, 1)
			}
			return false, nil
		}
		return false, err
	}
	// The same rules on the whole header: a cache hit, or a header that
	// reaches beyond the first page.
	if _, _, last, ok := rec.hdr.span(rec.ts); ok && last < lo || rec.hdr.lacksMember(w.slot) {
		w.dropped++
		w.buf = w.buf[:len(w.buf)-len(rec.blob)]
		return false, nil
	}
	return true, nil
}

// read copies the record under the cursor to the end of the step's buffer:
// its first page, and unless that drops it (keep false, nothing left in
// the buffer), the rest of its prefix. The header is parsed once, off the
// first page; one longer than that answers the prune from its prelude and
// is read whole and parsed then.
func (w *walker) read(c *recCursor, rec *walkRec, lo int64) (keep bool, err error) {
	start := len(w.buf)
	rec.stored = int64(c.cur.ValueSize())
	buf, err := c.cur.AppendValuePart(w.buf, btree.ChainChunk)
	if err != nil {
		return false, err
	}
	hdr, parsed := parseBlobHeader(buf[start:])
	_, _, last, spanOK := hdr.span(rec.ts)
	if !parsed {
		last, spanOK = headLastTS(buf[start:], rec.ts)
	}
	if spanOK && last < lo || hdr.lacksMember(w.slot) {
		w.dropped++
		w.buf = buf[:start] // keeps what the page grew
		return false, nil
	}
	for {
		end, more := int(rec.stored), false
		if parsed {
			end, more = hdr.wantedLen(w.wantTags, end)
		}
		if end <= len(buf)-start {
			break
		}
		if more {
			// Through the end of the page: the next part resumes on a new one.
			end = min((end+btree.ChainChunk-1)/btree.ChainChunk*btree.ChainChunk, int(rec.stored))
		}
		if buf, err = c.cur.AppendValuePart(buf, end); err != nil {
			return false, err
		}
		if !parsed {
			hdr, _ = parseBlobHeader(buf[start:]) // the whole record
			break
		}
		hdr.b = buf[start:]
	}
	w.buf = buf
	rec.blob = buf[start:len(buf):len(buf)]
	if rec.hdr = hdr; hdr.payOff != 0 {
		rec.hdr.b = rec.blob
	}
	if n := rec.stored - int64(len(rec.blob)); n > 0 {
		atomic.AddInt64(&w.s.stats.BytesNotRead, n)
	}
	return true, nil
}

// addBuffered appends the owner's buffered rows inside the chunk window
// as a pseudo-record — the dirty read ("the query component adopts a
// 'dirty read' isolation level to access uncommitted rows from concurrent
// insertions"). Caller holds the latch.
func (w *walker) addBuffered(ch *chunk) {
	var out []model.Point
	if w.group.Members == nil {
		if buf, ok := w.sh.buffers[w.owner]; ok {
			for i, ts := range buf.ts {
				if ts >= ch.lo && ts < ch.hi {
					out = append(out, model.Point{Source: w.owner, TS: ts, Values: buf.row(i)}.Clone())
				}
			}
		}
	} else if gb, ok := w.sh.groups[w.owner]; ok {
		for _, row := range gb.rows {
			for slot, p := range row.samples {
				if p.Values == nil || p.TS < ch.lo || p.TS >= ch.hi || (w.slot != allMembers && slot != w.slot) {
					continue
				}
				out = append(out, p.Clone())
			}
		}
		slices.SortFunc(out, func(a, b model.Point) int {
			return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Source, b.Source))
		})
	}
	if len(out) == 0 {
		return
	}
	// A buffered row goes after every stored record that starts at or
	// before it, so equal timestamps keep persisted-before-buffered order,
	// and a run of rows ends where the next record starts. The rows then
	// sit among the records in time order, wherever the walk cut its
	// steps: an aggregate meets its groups in the same order whatever the
	// stored records' sizes put the cuts.
	recs := ch.recs
	n, runs := len(recs), 0
	for i, j := 0, 0; j < len(out); runs++ {
		for i < n && recs[i].ts <= out[j].TS {
			i++
		}
		for j < len(out) && (i == n || out[j].TS < recs[i].ts) {
			j++
		}
	}
	w.buffer.seq = len(w.homes)
	// Fill from the back: the records behind each run move up past it.
	recs = slices.Grow(recs, runs)[:n+runs]
	for i, j, d := n, len(out), n+runs; j > 0; {
		p := sort.Search(i, func(k int) bool { return recs[k].ts > out[j-1].TS })
		for ; i > p; i-- {
			d--
			recs[d] = recs[i-1]
		}
		s := j - 1
		for s > 0 && (p == 0 || out[s-1].TS >= recs[p-1].ts) {
			s--
		}
		d--
		recs[d] = walkRec{home: &w.buffer, ts: out[s].TS, buffered: out[s:j:j]}
		j = s
	}
	ch.recs = recs
}

// lastTS bounds the record's newest row timestamp: exact from the
// summary, else by the home's widest span.
func (r *walkRec) lastTS() int64 {
	if _, _, last, ok := r.hdr.span(r.ts); ok {
		return last
	}
	if last := r.ts + r.home.span; last >= r.ts {
		return last
	}
	return math.MaxInt64 // statistics that bound nothing
}

// decode returns the rows of a stored record handed out in a chunk with
// window [lo, hi) — all of them when the window covers the record, else
// the row range the window needs, and of an MG record in a walk of one
// member that member's row alone (see blobHeader.decode). Only a
// whole-record decode is cached (blobHeader.whole): a row range or one
// member's row has no key that names it. The header decides the batch's
// owner first: a decode it says covers the record goes, with the cache on,
// into fresh memory the cache may share, never mutated; any other into dst
// (the walker's scratch) or, for a nil dst, a fresh batch. A nil
// batch with a nil error means the record contributes nothing: its span
// misses the window (nothing behind the header is read, stub or not), or
// it is quarantined in lenient mode. A stub with rows inside the window
// fails with StubbedRangeError — dropped by tier policy, never silently
// missing, and never quarantined: a stub is not a corrupt record.
func (w *walker) decode(r *walkRec, lo, hi int64, dst *DecodedBatch) (batch *DecodedBatch, err error) {
	rows, first, last, spanOK := r.hdr.span(r.ts)
	if spanOK && (rows == 0 || last < lo || first >= hi) {
		return nil, nil
	}
	if r.hit != nil {
		w.cache.noteSaved(r.hit.blobLen)
		return r.hit.batch, nil
	}
	if err := ctxErr(w.ctx); err != nil {
		return nil, err
	}
	cached := w.cache != nil && r.hdr.covers(r.ts, w.slot, lo, hi-1)
	if cached {
		dst = nil
	}
	switch {
	case r.hdr.tier() != TierStub:
		batch, err = r.hdr.decode(dst, r.ts, w.wantTags, w.slot, lo, hi-1)
	case spanOK:
		return nil, &StubbedRangeError{Tree: r.home.tree.Name(), Source: r.home.id, TS: r.ts, FirstTS: first, LastTS: last}
	default:
		err = fmt.Errorf("tsstore: corrupt stub blob %s source=%d ts=%d", r.home.tree.Name(), r.home.id, r.ts)
	}
	if err != nil {
		if w.s.cfg.LenientScan {
			atomic.AddInt64(&w.s.stats.CorruptBlobsSkipped, 1)
			return nil, nil
		}
		return nil, err
	}
	w.decoded++
	w.decodedRows += len(batch.Rows)
	atomic.AddInt64(&w.s.stats.DecodedValues, int64(batch.decoded))
	if cached && r.hdr.whole(batch) {
		batch.col = nil
		w.cache.put(blobKey{tree: w.s.treeID(r.home.tree), source: r.home.id, ts: r.ts}, w.sig, r.ver,
			batch, r.hdr.detached(), r.stored)
	}
	return batch, nil
}

// eachRow calls fn for the rows of a decoded record that belong to the
// walk within [lo, hi): MG rows are attributed to the member their slot
// holds in the group's table (rows at a hole, or past the table, dropped)
// and filtered to the walker's member, if any.
func (w *walker) eachRow(r *walkRec, batch *DecodedBatch, lo, hi int64, fn func(src, ts int64, vals []float64)) {
	for i, ts := range batch.Timestamps {
		src := r.home.id
		if batch.Structure == model.MG {
			m := w.group.Member(batch.Slots[i])
			if m == nil || w.slot != allMembers && batch.Slots[i] != w.slot {
				continue
			}
			src = m.ID
		}
		if ts >= lo && ts < hi {
			fn(src, ts, batch.Rows[i])
		}
	}
}
