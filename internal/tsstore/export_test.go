package tsstore

import (
	"reflect"
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

// bufferedBytes sums, over every source buffer, the capacity in bytes of
// each slice the buffer holds — whatever its fields are, so a per-point or
// scratch array added to it counts too.
func (s *Store) bufferedBytes() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, b := range sh.buffers {
			v := reflect.ValueOf(b).Elem()
			for i := range v.NumField() {
				if f := v.Field(i); f.Kind() == reflect.Slice {
					total += f.Cap() * int(f.Type().Elem().Size())
				}
			}
		}
		sh.mu.RUnlock()
	}
	return total
}
