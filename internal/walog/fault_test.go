package walog

import (
	"errors"
	"fmt"
	"testing"

	"odh/internal/fault"
	"odh/internal/pagestore"
)

func newFaultLog(t *testing.T, opts Options) (*Log, *fault.File) {
	t.Helper()
	ff := fault.Wrap(pagestore.NewMemFile())
	l, err := OpenFile(ff, opts)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	return l, ff
}

func TestDefaultPolicyNeverSyncsOnAppend(t *testing.T) {
	l, ff := newFaultLog(t, Options{})
	for i := 0; i < 10; i++ {
		if err := l.AppendBatch([][]byte{[]byte("p")}); err != nil {
			t.Fatal(err)
		}
	}
	if c := ff.Counters(); c.Syncs != 0 {
		t.Fatalf("default policy synced %d times during appends, want 0", c.Syncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if c := ff.Counters(); c.Syncs != 1 {
		t.Fatalf("Syncs = %d after explicit Sync, want 1", c.Syncs)
	}
}

func TestSyncOnAppendPolicy(t *testing.T) {
	l, ff := newFaultLog(t, Options{SyncOnAppend: true})
	for i := 0; i < 5; i++ {
		if err := l.AppendBatch([][]byte{[]byte("p")}); err != nil {
			t.Fatal(err)
		}
	}
	if c := ff.Counters(); c.Syncs != 5 {
		t.Fatalf("Syncs = %d with SyncOnAppend, want 5", c.Syncs)
	}
	// A failing fsync must surface from Append, not be swallowed.
	ff.FailSyncsAfter(0)
	if err := l.AppendBatch([][]byte{[]byte("p")}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Append with failing sync = %v, want injected fault", err)
	}
}

// TestSyncEveryPolicy pins what SyncEvery counts: records, whatever their
// size and kind. The historian logs one record per ingest call, so under
// SyncEvery: N a crash loses at most the last N acked calls — a
// thousand-point frame counts once, like a single point.
func TestSyncEveryPolicy(t *testing.T) {
	l, ff := newFaultLog(t, Options{SyncEvery: 4})
	frame := make([]byte, 40_000)
	for i := 0; i < 10; i++ {
		var err error
		if i%2 == 0 {
			err = l.AppendBatch([][]byte{[]byte("p")})
		} else {
			err = l.AppendKind(1, [][]byte{frame})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if c := ff.Counters(); c.Syncs != 2 {
		t.Fatalf("Syncs = %d with SyncEvery=4 over 10 one-record appends, want 2", c.Syncs)
	}
	// An explicit Sync resets the cadence counter.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("p")}); err != nil {
		t.Fatal(err)
	}
	if c := ff.Counters(); c.Syncs != 2+1 {
		t.Fatalf("Syncs = %d after explicit sync + 1 append, want 3", c.Syncs)
	}
	// An append of several records counts each of them.
	if err := l.AppendKind(1, [][]byte{frame, frame, frame}); err != nil {
		t.Fatal(err)
	}
	if c := ff.Counters(); c.Syncs != 2+1+1 {
		t.Fatalf("Syncs = %d after a 3-record append on top of 1 unsynced record, want 4", c.Syncs)
	}
}

func TestTornAppendTruncatedOnReopen(t *testing.T) {
	l, ff := newFaultLog(t, Options{})
	for i := 0; i < 3; i++ {
		if err := l.AppendBatch([][]byte{[]byte(fmt.Sprintf("record-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// The fourth append tears partway through its record.
	ff.FailWritesAfter(0)
	ff.SetTornWrite(10)
	if err := l.AppendBatch([][]byte{[]byte("record-3-lost")}); err == nil {
		t.Fatal("expected torn append to fail")
	}
	// "Crash" and reopen on the raw bytes: the torn tail must be trimmed
	// and exactly the synced records replayed.
	l2, err := OpenFile(ff.Inner(), Options{})
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	var got []string
	if err := l2.Replay(func(_ byte, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records %v, want 3", len(got), got)
	}
	for i, rec := range got {
		if rec != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = %q", i, rec)
		}
	}
	// The log must accept fresh appends after recovery.
	if err := l2.AppendBatch([][]byte{[]byte("record-3-retry")}); err != nil {
		t.Fatal(err)
	}
}
