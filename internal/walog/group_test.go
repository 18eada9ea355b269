package walog

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"odh/internal/fault"
	"odh/internal/pagestore"
)

// TestConcurrentAppendsAllReplayed hammers the log from many goroutines and checks that every record survives, intact and
// exactly once.
func TestConcurrentAppendsAllReplayed(t *testing.T) {
	l, _ := openLog(t)
	const writers, perWriter = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.AppendBatch([][]byte{fmt.Appendf(nil, "w%02d-%04d", w, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, writers*perWriter)
	if err := l.Replay(func(_ byte, p []byte) error {
		if seen[string(p)] {
			return fmt.Errorf("duplicate record %q", p)
		}
		seen[string(p)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*perWriter)
	}
	st := l.Stats()
	if st.Records != writers*perWriter {
		t.Fatalf("Stats.Records = %d, want %d", st.Records, writers*perWriter)
	}
	if st.GroupCommits <= 0 || st.GroupCommits > st.Records {
		t.Fatalf("GroupCommits = %d out of range (records %d)", st.GroupCommits, st.Records)
	}
}

// syncProbe records, as each fsync starts, how far the log had been
// written, and makes every fsync slow so that appends pile up behind a
// running one.
type syncProbe struct {
	File
	mu      sync.Mutex
	written int64 // end of the furthest completed write
	covered int64 // the furthest 'written' a completed fsync began at
	syncs   int64
}

func (f *syncProbe) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.mu.Lock()
	f.written = max(f.written, off+int64(n))
	f.mu.Unlock()
	return n, err
}

func (f *syncProbe) Sync() error {
	f.mu.Lock()
	start := f.written
	f.mu.Unlock()
	time.Sleep(500 * time.Microsecond)
	err := f.File.Sync()
	f.mu.Lock()
	f.syncs++
	f.covered = max(f.covered, start)
	f.mu.Unlock()
	return err
}

func (f *syncProbe) coveredNow() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.covered
}

// TestSyncIsShared: under SyncOnAppend the fsync is the step concurrent
// appenders share. Behind a slow fsync, 32 appenders issue fewer fsyncs
// than appends, every record replays, and no append returns before an
// fsync that began after its own bytes were written.
func TestSyncIsShared(t *testing.T) {
	f := &syncProbe{File: pagestore.NewMemFile()}
	l, err := OpenFile(f, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, perWriter = 32, 20
	coveredAtReturn := make([]int64, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.AppendBatch([][]byte{fmt.Appendf(nil, "w%02d-%03d", w, i)}); err != nil {
					t.Error(err)
					return
				}
				coveredAtReturn[w*perWriter+i] = f.coveredNow()
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool, writers*perWriter)
	if err := l.Records(func(off int64, _ byte, p []byte) error {
		var w, i int
		if _, err := fmt.Sscanf(string(p), "w%02d-%03d", &w, &i); err != nil {
			return fmt.Errorf("record %q: %v", p, err)
		}
		k := w*perWriter + i
		if seen[k] {
			return fmt.Errorf("duplicate record %q", p)
		}
		seen[k] = true
		if end := off + recordHeader + int64(len(p)); coveredAtReturn[k] < end {
			return fmt.Errorf("record %q ends at %d, but its Append returned when the fsyncs covered only %d", p, end, coveredAtReturn[k])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*perWriter)
	}
	st := l.Stats()
	if st.Records != writers*perWriter || st.GroupCommits != st.Records {
		t.Fatalf("Records=%d GroupCommits=%d, want %d of each (one write per append)", st.Records, st.GroupCommits, writers*perWriter)
	}
	if st.Syncs != f.syncs || st.Syncs >= st.Records {
		t.Fatalf("%d fsyncs (the file saw %d) for %d appends, want fewer fsyncs than appends", st.Syncs, f.syncs, st.Records)
	}
	t.Logf("%d appends shared %d fsyncs", st.Records, st.Syncs)
}

// TestAppendBatchSingleCommit checks that a batch lands in one write and
// replays in order.
func TestAppendBatchSingleCommit(t *testing.T) {
	l, _ := openLog(t)
	batch := make([][]byte, 100)
	for i := range batch {
		batch[i] = fmt.Appendf(nil, "batch-%03d", i)
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != 100 || st.GroupCommits != 1 {
		t.Fatalf("Records=%d GroupCommits=%d, want 100/1", st.Records, st.GroupCommits)
	}
	i := 0
	if err := l.Replay(func(_ byte, p []byte) error {
		if string(p) != fmt.Sprintf("batch-%03d", i) {
			return fmt.Errorf("record %d = %q out of order", i, p)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != 100 {
		t.Fatalf("replayed %d records, want 100", i)
	}
}

// TestAppendBatchEmptyAndOversized covers the degenerate inputs.
func TestAppendBatchEmptyAndOversized(t *testing.T) {
	l, _ := openLog(t)
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := l.AppendBatch([][]byte{make([]byte, MaxRecord+1)}); err != ErrTooLarge {
		t.Fatalf("oversized batch record: %v, want ErrTooLarge", err)
	}
	if l.Size() != 0 {
		t.Fatalf("rejected batches must not grow the log (size %d)", l.Size())
	}
}

// TestAppendAfterClose verifies appends fail cleanly once the log is
// closed, including appends racing Close.
func TestAppendAfterClose(t *testing.T) {
	l, _ := openLog(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := l.AppendBatch([][]byte{[]byte("racing")}); err != nil {
					if err != ErrClosed {
						t.Errorf("append during close: %v", err)
					}
					return
				}
			}
		}()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := l.AppendBatch([][]byte{[]byte("late")}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.AppendBatch([][]byte{[]byte("late")}); err != ErrClosed {
		t.Fatalf("batch append after close: %v, want ErrClosed", err)
	}
}

// TestTornGroupCommitRecovered kills the backing file mid-write of a
// many-record append: the append sees the error, and reopening the log
// replays exactly the records written before the tear.
func TestTornGroupCommitRecovered(t *testing.T) {
	mem := pagestore.NewMemFile()
	ff := fault.Wrap(mem)
	l, err := OpenFile(ff, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.AppendBatch([][]byte{fmt.Appendf(nil, "pre-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the next write 5 bytes in (mid record header): nothing of the
	// doomed group survives as a valid record.
	ff.FailWritesAfter(0)
	ff.SetTornWrite(5)
	batch := make([][]byte, 50)
	for i := range batch {
		batch[i] = fmt.Appendf(nil, "doomed-%02d", i)
	}
	if err := l.AppendBatch(batch); err == nil {
		t.Fatal("append through failing file must error")
	}
	// The in-process Log is now abandoned (crash). Reopen on the same
	// bytes: replay must yield the 10 durable records and stop at the tear.
	l2, err := OpenFile(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	if err := l2.Replay(func(_ byte, p []byte) error {
		if string(p) != fmt.Sprintf("pre-%02d", n) {
			return fmt.Errorf("record %d = %q", n, p)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("recovered %d records, want the 10 pre-tear ones", n)
	}
}
