package walog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ingest.wal")
	l, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func TestAppendReplay(t *testing.T) {
	l, _ := openLog(t)
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if err := l.AppendBatch([][]byte{p}); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	if err := l.Replay(func(_ byte, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReplayAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.AppendBatch([][]byte{[]byte{byte(i)}})
	}
	l.Sync()
	l.Close()

	l2, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Replay(func(_ byte, p []byte) error { n++; return nil })
	if n != 10 {
		t.Fatalf("replayed %d, want 10", n)
	}
	// New appends land after the old ones.
	l2.AppendBatch([][]byte{[]byte{99}})
	n = 0
	var last byte
	l2.Replay(func(_ byte, p []byte) error { n++; last = p[0]; return nil })
	if n != 11 || last != 99 {
		t.Fatalf("after reopen append: %d records, last %d", n, last)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch([][]byte{[]byte("good-1")})
	l.AppendBatch([][]byte{[]byte("good-2")})
	size := l.Size()
	l.Close()

	// Simulate a torn final write: append garbage bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	l2, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != size {
		t.Fatalf("torn tail not truncated: size %d, want %d", l2.Size(), size)
	}
	n := 0
	l2.Replay(func(_ byte, p []byte) error { n++; return nil })
	if n != 2 {
		t.Fatalf("replayed %d, want 2", n)
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch([][]byte{[]byte("aaaa")})
	l.AppendBatch([][]byte{[]byte("bbbb")})
	l.Close()

	// Flip a payload byte of the second record.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	l2, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Replay(func(_ byte, p []byte) error { n++; return nil })
	if n != 1 {
		t.Fatalf("replay past corruption: %d records", n)
	}
}

func TestReset(t *testing.T) {
	l, _ := openLog(t)
	l.AppendBatch([][]byte{[]byte("x")})
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size after reset = %d", l.Size())
	}
	n := 0
	l.Replay(func(_ byte, p []byte) error { n++; return nil })
	if n != 0 {
		t.Fatal("records survived reset")
	}
}

func TestTooLarge(t *testing.T) {
	l, _ := openLog(t)
	if err := l.AppendBatch([][]byte{make([]byte, MaxRecord+1)}); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestReplayCallbackError(t *testing.T) {
	l, _ := openLog(t)
	l.AppendBatch([][]byte{[]byte("a")})
	l.AppendBatch([][]byte{[]byte("b")})
	wantErr := fmt.Errorf("stop")
	err := l.Replay(func(_ byte, p []byte) error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}
