package tsstore

import (
	"sync/atomic"
	"testing"

	"odh/internal/model"
)

// WalkCounts is what the walk behind one scan did: records take dropped on
// their header's word, records decoded, and the rows those decodes
// materialised.
type WalkCounts struct{ Dropped, Decoded, DecodedRows int }

// ScanWalkCounts reports what the walks behind a scan iterator did so far,
// summed over its walker list.
func ScanWalkCounts(it Iterator) WalkCounts {
	var c WalkCounts
	for _, w := range it.(*scanIter).ws {
		c.Dropped += w.dropped
		c.Decoded += w.decoded
		c.DecodedRows += w.decodedRows
	}
	return c
}

// RandomFrame and SamePoints are the frame codec's test helpers
// (logframe_test.go), for the wire fuzzer.
var (
	RandomFrame = randomFrame
	SamePoints  = samePoints
)

// EncodeFrames is encodeFrames in scratch of its own; the records it
// returns are the caller's.
func EncodeFrames(points []model.Point, limit int) [][]byte {
	var e frameEnc
	return e.encodeFrames(points, limit)
}

// countFrameRefills wraps framePool.New until t ends: the count is how many
// times a log frame's encoder scratch was built from nothing instead of
// reused — after a GC emptied the pool, and under -race, whose sync.Pool
// drops items at random, far more often.
func countFrameRefills(t testing.TB) *atomic.Int64 {
	n := new(atomic.Int64)
	fresh := framePool.New
	framePool.New = func() any { n.Add(1); return fresh() }
	t.Cleanup(func() { framePool.New = fresh })
	return n
}

// countScratchRefills wraps scratchPool.New until t ends, as
// countFrameRefills does framePool's: the count is how many walkers built
// their scratch — and with it their cursors' leaf snapshots — from nothing
// instead of taking the one an earlier walker left.
func countScratchRefills(t testing.TB) *atomic.Int64 {
	n := new(atomic.Int64)
	fresh := scratchPool.New
	scratchPool.New = func() any { n.Add(1); return fresh() }
	t.Cleanup(func() { scratchPool.New = fresh })
	return n
}

// emptyScratchPool takes scratch from the pool until it has to build one,
// which refills — counted by countScratchRefills — reports: the next walker
// then builds its own.
func emptyScratchPool(refills *atomic.Int64) {
	for n := refills.Load(); refills.Load() == n; {
		scratchPool.Get()
	}
}
