package pagestore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"odh/internal/metrics"
)

// TestPartitionCountPolicy pins the partition sizing rules: tiny pools
// collapse to one partition (preserving exact LRU/eviction semantics the
// legacy tests rely on), large pools split, and counts are powers of two.
func TestPartitionCountPolicy(t *testing.T) {
	cases := []struct {
		pool, override, want int
	}{
		{8, 0, 1},         // tiny pool: never split
		{64, 0, 1},        // one partition's worth of frames
		{1024, 1, 1},      // explicit single-latch override
		{1024, 4, 4},      // explicit override honored
		{1024, 3, 2},      // rounded down to a power of two
		{1 << 20, 64, 16}, // capped at maxPartitions
	}
	for _, c := range cases {
		if got := partitionCount(c.pool, c.override); got != c.want {
			t.Errorf("partitionCount(%d, %d) = %d, want %d", c.pool, c.override, got, c.want)
		}
	}
}

// TestConcurrentGetAcrossPartitions exercises parallel readers and
// writers over a partitioned pool under -race: every page keeps its own
// contents, and aggregated stats balance.
func TestConcurrentGetAcrossPartitions(t *testing.T) {
	s, err := Open(NewMemFile(), Options{PoolPages: 512, PoolPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.parts) != 8 {
		t.Fatalf("%d partitions, want 8", len(s.parts))
	}
	const nPages = 256
	ids := make([]PageID, nPages)
	for i := range ids {
		id, fr, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(fr.Data(), uint32(id)^0xABCD1234)
		fr.MarkDirty()
		fr.Unpin()
		ids[i] = id
	}
	const workers, rounds = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(w*rounds+i*7)%nPages]
				fr, err := s.Get(id)
				if err != nil {
					t.Errorf("get %d: %v", id, err)
					return
				}
				if got := binary.LittleEndian.Uint32(fr.Data()); got != uint32(id)^0xABCD1234 {
					t.Errorf("page %d holds %#x", id, got)
				}
				fr.Unpin()
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses < workers*rounds {
		t.Fatalf("hits+misses = %d, want >= %d", st.Hits+st.Misses, workers*rounds)
	}
	if hr := st.HitRate(); hr <= 0 || hr > 1 {
		t.Fatalf("HitRate() = %v out of range", hr)
	}
	var perPart Stats
	for _, ps := range s.PartitionStats() {
		metrics.Add(&perPart, ps)
	}
	if perPart.Hits != st.Hits || perPart.Misses != st.Misses {
		t.Fatalf("partition stats (%d/%d) disagree with aggregate (%d/%d)",
			perPart.Hits, perPart.Misses, st.Hits, st.Misses)
	}
}

// TestConcurrentAllocateAndFlush interleaves allocation, mutation, and
// full flushes, then verifies the on-disk image end to end. The writers
// follow the store's rule: a pinned frame changes only inside a
// BeginWrite section, which is what keeps Flush from copying it mid-write.
func TestConcurrentAllocateAndFlush(t *testing.T) {
	s, err := Open(NewMemFile(), Options{PoolPages: 256, PoolPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.BeginWrite()
				id, fr, err := s.Allocate()
				if err != nil {
					s.EndWrite()
					t.Error(err)
					return
				}
				copy(fr.Data(), fmt.Sprintf("w%d-i%d-p%d", w, i, id))
				fr.MarkDirty()
				fr.Unpin()
				s.EndWrite()
				if i%10 == 0 {
					if err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checked, corrupt, err := s.VerifyPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("corrupt pages after concurrent churn: %v", corrupt)
	}
	if want := workers*perWorker + 1; checked != want {
		t.Fatalf("checked %d pages, want %d", checked, want)
	}
}

// TestHitRateZeroPool covers the divide-by-zero guard.
func TestHitRateZeroPool(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Fatalf("HitRate on empty stats = %v, want 0", hr)
	}
}
