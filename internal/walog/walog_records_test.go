package walog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func newMemLog(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := OpenPath(filepath.Join(t.TempDir(), "records.wal"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestRecordsOffsets verifies the exported record iteration reports each
// record's starting byte offset — the contract replication shipping and
// hinted-handoff replay resume from.
func TestRecordsOffsets(t *testing.T) {
	l := newMemLog(t, Options{})
	payloads := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, p := range payloads {
		if err := l.AppendBatch([][]byte{p}); err != nil {
			t.Fatal(err)
		}
	}
	var gotOffs []int64
	var gotPayloads []string
	if err := l.Records(func(off int64, _ byte, p []byte) error {
		gotOffs = append(gotOffs, off)
		gotPayloads = append(gotPayloads, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantOffs := []int64{0, recordHeader + 1, 2*recordHeader + 3}
	if fmt.Sprint(gotOffs) != fmt.Sprint(wantOffs) {
		t.Fatalf("offsets = %v, want %v", gotOffs, wantOffs)
	}
	if fmt.Sprint(gotPayloads) != fmt.Sprint([]string{"a", "bb", "ccc"}) {
		t.Fatalf("payloads = %v", gotPayloads)
	}
	// Resuming from a reported offset must see exactly the later records.
	var resumed []string
	if err := l.Records(func(off int64, _ byte, p []byte) error {
		if off >= wantOffs[1] {
			resumed = append(resumed, string(p))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resumed) != fmt.Sprint([]string{"bb", "ccc"}) {
		t.Fatalf("resumed = %v", resumed)
	}
}

// TestRecordKinds: a record's kind rides in the top byte of its length
// word and comes back from Records/Replay; records of different kinds
// follow one another in one file and survive a reopen.
func TestRecordKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kinds.wal")
	l, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("plain")}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendKind(1, [][]byte{[]byte("one"), {}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("batch")}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendKind(255, [][]byte{[]byte("last")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, err = OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []string
	if err := l.Replay(func(kind byte, p []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", kind, p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := "[0:plain 1:one 1: 0:batch 255:last]"; fmt.Sprint(got) != want {
		t.Fatalf("replayed %v, want %s", got, want)
	}
}

// TestKindZeroIsTheOldFormat: a kind-0 record is byte for byte what the
// log held before records had kinds (length u32 with a zero top byte, crc
// of the payload alone), so every older log reads as kind 0 — and a kind
// byte damaged on disk fails the checksum like any other torn tail instead
// of passing one format's payload off as another's.
func TestKindZeroIsTheOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	payload := []byte("a point, as the previous build logged it")
	old := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(payload))
	old = append(old, payload...)
	if err := os.WriteFile(path, append(append([]byte(nil), old...), old...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	l.Replay(func(kind byte, p []byte) error {
		if kind != 0 || !bytes.Equal(p, payload) {
			t.Fatalf("old record read as kind %d payload %q", kind, p)
		}
		n++
		return nil
	})
	if n != 2 {
		t.Fatalf("read %d of 2 old records", n)
	}
	if err := l.AppendBatch([][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendKind(1, [][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[2*len(old):3*len(old)], old) {
		t.Fatal("a kind-0 append differs from the old record format")
	}
	for _, rec := range []int{1, 3} { // an old record and a kind-1 record
		damaged := append([]byte(nil), data...)
		damaged[rec*len(old)+3] ^= 2 // the kind byte
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenPath(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := l.Size(), int64(rec*len(old)); got != want {
			t.Fatalf("record %d with a flipped kind byte: log reopened %d bytes long, want it cut at %d", rec, got, want)
		}
		l.Close()
	}
}
