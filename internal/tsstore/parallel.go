package tsstore

import (
	"context"
	"math"

	"odh/internal/model"
)

// The parallel scan scheduler fans the independent parts of a scan —
// disjoint owners, and ts-disjoint sub-ranges of one source's walk —
// across a bounded worker pool. Each worker drains its part
// iterator up to a per-part byte budget and delivers one result over a
// capacity-1 channel, so an abandoned scan (e.g. a LIMIT that stops
// early) never strands a blocked goroutine and never holds more than
// parts × maxPartBufferBytes of decoded points. A part larger than the
// budget is handed back still live: the consumer replays the buffered
// prefix, then continues the same iterator serially on its own
// goroutine — the fan-out covers the first maxPartBufferBytes of every
// part, the oversized tails stream like a serial scan. Results are
// consumed in the original part order and concatenated, which keeps the
// output byte-identical to a serial scan.

// ScanOptions tunes one scan; the zero value is the serial, cached
// behavior of the plain scan methods.
type ScanOptions struct {
	// Workers bounds how many scan parts are drained concurrently.
	// Values <= 1 keep the scan on the calling goroutine.
	Workers int
	// NoCache bypasses the decoded-blob cache for this scan (reads and
	// inserts); used to cross-check cached results and by verification.
	NoCache bool
	// Ctx, when non-nil, cancels the scan: serial iterators observe it
	// before each blob load, pool workers observe it between drained
	// points and between parts, and aggregate parts observe it between
	// records. A canceled scan stops decoding and reports ctx.Err()
	// through Iterator.Err (or the aggregate call's error).
	Ctx context.Context
}

// ctxErr is a nil-safe ctx.Err for the scan paths (nil ctx = no
// cancellation, the historical behavior).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ctxCheckInterval is how many drained points a pool worker buffers
// between cancellation checks; cheap enough to keep aborts prompt without
// a per-point atomic load.
const ctxCheckInterval = 256

// maxScanWorkers caps the per-scan fan-out regardless of options.
const maxScanWorkers = 64

func clampWorkers(n int) int {
	if n > maxScanWorkers {
		return maxScanWorkers
	}
	if n < 1 {
		return 1
	}
	return n
}

// scanCache resolves the cache a scan should use (nil = bypass).
func (s *Store) scanCache(opts ScanOptions) *blobCache {
	if opts.NoCache {
		return nil
	}
	return s.cache
}

// scanRange is one ts-disjoint slice of a scan window.
type scanRange struct{ t1, t2 int64 }

// splitScanRange partitions [t1, t2) into up to k ts-disjoint sub-ranges
// that cover exactly the same window. Boundaries are spread over the
// source's recorded data range so the split lands where batches actually
// are; a window (or data range) too small to split returns one range.
// Because the sub-ranges partition by timestamp, concatenating their
// scans yields exactly the rows of the full-range scan, in the same
// order: equal-timestamp points always land in the same sub-range.
func splitScanRange(t1, t2 int64, stats model.SourceStats, k int) []scanRange {
	if k <= 1 || stats.PointCount == 0 {
		return []scanRange{{t1, t2}}
	}
	lo, hi := stats.FirstTS, stats.LastTS
	if hi < math.MaxInt64 {
		hi++ // cover LastTS itself; ranges are half-open
	}
	if lo < t1 {
		lo = t1
	}
	if hi > t2 {
		hi = t2
	}
	if hi <= lo {
		return []scanRange{{t1, t2}}
	}
	span := uint64(hi) - uint64(lo)
	if span < uint64(k)*2 || span > 1<<62 {
		return []scanRange{{t1, t2}}
	}
	step := span / uint64(k)
	out := make([]scanRange, 0, k)
	prev := t1
	for i := 1; i < k; i++ {
		b := lo + int64(step*uint64(i))
		out = append(out, scanRange{prev, b})
		prev = b
	}
	return append(out, scanRange{prev, t2})
}

// maxPartBufferBytes bounds the decoded point bytes one worker may
// materialize ahead of the consumer. The planner sizes parts near
// parallelCostUnit (64 KiB of blob bytes), so ordinary parts fit whole;
// the bound only bites when skewed stats mis-split a window, keeping a
// scan's worst-case buffered memory at parts × this budget instead of
// the full decoded result.
const maxPartBufferBytes = 4 << 20

// partResult is the drained output of one scan part. When the part
// out-sized the buffer budget, rest is the same iterator, still live and
// positioned after the buffered prefix; the channel handoff orders the
// worker's Next calls before the consumer's.
type partResult struct {
	points       []model.Point
	rest         Iterator
	err          error
	blobBytes    int64
	blobsSkipped int64
}

// partIter replays one materialized part, then continues any unbuffered
// tail inline. The worker's single send is received lazily on first use,
// so parts later in a concat keep loading in the background while
// earlier parts stream out.
type partIter struct {
	ch  <-chan partResult
	res *partResult
	i   int
}

func (it *partIter) fetch() {
	if it.res == nil {
		r := <-it.ch
		it.res = &r
	}
}

// Next yields the points drained before any error, then stops — the same
// shape a serial iterator has when a scan fails mid-way.
func (it *partIter) Next() (model.Point, bool) {
	it.fetch()
	if it.i < len(it.res.points) {
		p := it.res.points[it.i]
		it.i++
		return p, true
	}
	if it.res.rest != nil {
		return it.res.rest.Next()
	}
	return model.Point{}, false
}

func (it *partIter) Err() error {
	it.fetch()
	if it.res.rest != nil {
		return it.res.rest.Err()
	}
	return it.res.err
}

// BlobBytes reports the part's cost once its result arrived; an
// un-fetched part contributes nothing yet rather than blocking. A
// handed-back iterator keeps accumulating, prefix included.
func (it *partIter) BlobBytes() int64 {
	if it.res == nil {
		return 0
	}
	if it.res.rest != nil {
		return it.res.rest.BlobBytes()
	}
	return it.res.blobBytes
}

func (it *partIter) BlobsSkipped() int64 {
	if it.res == nil {
		return 0
	}
	if it.res.rest != nil {
		return it.res.rest.BlobsSkipped()
	}
	return it.res.blobsSkipped
}

// drainParts drains every part on the worker pool and returns one
// order-preserving partIter per input part.
func (s *Store) drainParts(ctx context.Context, parts []Iterator, workers int) []Iterator {
	return s.drainPartsBounded(ctx, parts, workers, maxPartBufferBytes)
}

// drainPartsBounded is drainParts with an explicit per-part buffer
// budget (separated for tests). Workers observe ctx before starting
// their part and every ctxCheckInterval drained points, so an abandoned
// or timed-out query stops decoding blobs instead of racing the pool to
// completion.
func (s *Store) drainPartsBounded(ctx context.Context, parts []Iterator, workers int, budget int64) []Iterator {
	if workers > len(parts) {
		workers = len(parts)
	}
	sem := make(chan struct{}, workers)
	out := make([]Iterator, len(parts))
	for i, p := range parts {
		ch := make(chan partResult, 1)
		out[i] = &partIter{ch: ch}
		go func(p Iterator, ch chan<- partResult) {
			sem <- struct{}{}
			defer func() { <-sem }()
			var res partResult
			if err := ctxErr(ctx); err != nil {
				res.err = err
				ch <- res
				return
			}
			var buffered int64
			var sinceCheck int
			for buffered < budget {
				pt, ok := p.Next()
				if !ok {
					break
				}
				res.points = append(res.points, pt)
				buffered += pointBlobBytes(len(pt.Values))
				if sinceCheck++; sinceCheck >= ctxCheckInterval {
					sinceCheck = 0
					if err := ctxErr(ctx); err != nil {
						res.err = err
						ch <- res
						return
					}
				}
			}
			if buffered >= budget {
				// Budget hit: hand the live iterator back; the consumer
				// continues it serially after replaying the prefix.
				res.rest = p
			} else {
				res.err = p.Err()
				res.blobBytes = p.BlobBytes()
				res.blobsSkipped = p.BlobsSkipped()
			}
			ch <- res
		}(p, ch)
	}
	s.parallelScans.Add(1)
	s.parallelParts.Add(int64(len(parts)))
	return out
}
