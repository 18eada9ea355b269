// Package walog provides a checksummed append-only log. The ODH ingest
// path is non-transactional (per §3 of the paper, "the insertion process
// does not support transactions ... reasonable data loss is acceptable"),
// but deployments that want bounded loss can attach a log to the ingest
// buffers: appended points survive a crash between buffer fill and batch
// flush. Records that fail their checksum (a torn final write) terminate
// replay silently, matching the bounded-loss contract.
//
// An append runs on its caller's goroutine: it seals its records into one
// reused buffer and writes them with one WriteAt under the log's mutex.
// What concurrent appenders share is the fsync. Under SyncOnAppend or
// SyncEvery an append waits for an fsync that began after its bytes were
// written (syncTo): appends that land while one fsync runs are all covered
// by the next, so N concurrent appends cost N writes and far fewer fsyncs.
package walog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// record framing: a u32 word holding the payload length in its low 24
// bits and the record kind in its top byte, a crc32 u32, the payload. A
// kind tells the consumer which payload format a record holds, so formats
// can follow one another inside one file. The top byte was always zero
// before kinds existed, so every older log reads as kind 0; a kind-0
// checksum covers the payload alone, as it did then, any other kind's the
// kind byte and then the payload.
const recordHeader = 8

// MaxRecord is the largest payload of a single record: what the 24-bit
// length can say, which also bounds what replay allocates from a corrupt
// length field.
const MaxRecord = 1<<24 - 1

// maxScratch is the retained capacity of the append scratch buffer; a
// larger one-off batch is served but the buffer is released afterwards.
const maxScratch = 4 << 20

// ErrTooLarge reports an oversized append.
var ErrTooLarge = fmt.Errorf("walog: record exceeds %d bytes", MaxRecord)

// ErrClosed reports an append to a closed log.
var ErrClosed = errors.New("walog: log is closed")

// File is the backing storage a Log runs on — satisfied by *os.File and by
// fault-injection wrappers in crash tests.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Options selects the log's durability policy. The zero value is the
// paper's bounded-loss default: appends are buffered by the OS and only
// forced to stable storage by explicit Sync calls (the historian syncs at
// batch-flush boundaries), so a crash loses at most the tail written since
// the last sync.
type Options struct {
	// SyncOnAppend forces every append to stable storage before the append
	// returns — zero loss. Concurrent appends share fsyncs: one covers
	// every record written before it began.
	SyncOnAppend bool
	// SyncEvery, when > 0, syncs after every Nth record — an intermediate
	// point on the durability/throughput curve: a crash loses at most the
	// last N records. The historian logs one record per ingest call, so
	// there N records are N acked calls of whatever size. Ignored if
	// SyncOnAppend.
	SyncEvery int
}

// Stats counts append activity.
type Stats struct {
	// Records is the number of records appended.
	Records int64
	// GroupCommits is the number of write syscalls issued, one per append
	// call; Records / GroupCommits is the records an append carried.
	GroupCommits int64
	// Syncs is the number of fsyncs issued.
	Syncs int64
}

// Log is an append-only record log. It is safe for concurrent appends.
type Log struct {
	mu       sync.Mutex // guards f's writes, off, unsynced, scratch, stats, closed
	f        File
	off      int64
	opts     Options
	unsynced int    // records since the last sync began
	scratch  []byte // append build buffer
	stats    Stats
	closed   bool

	syncMu sync.Mutex // held across an fsync; guards synced
	synced int64      // every byte before it is on stable storage
}

// OpenPath opens or creates the log at path with the given policy.
func OpenPath(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("walog: open: %w", err)
	}
	return OpenFile(f, opts)
}

// OpenFile opens a log over an already-open backing file and positions
// appends after the last valid record (a torn tail is truncated away).
func OpenFile(f File, opts Options) (*Log, error) {
	l := &Log{f: f, opts: opts}
	end, err := l.scanEnd()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("walog: truncate torn tail: %w", err)
	}
	l.off = end
	return l, nil
}

// scanEnd walks the records and returns the offset just past the last
// valid one.
func (l *Log) scanEnd() (int64, error) {
	var off int64
	hdr := make([]byte, recordHeader)
	for {
		if _, err := l.f.ReadAt(hdr, off); err != nil {
			return off, nil // EOF or short read: stop at last good record
		}
		kind, length, want := parseHeader(hdr)
		payload := make([]byte, length)
		if _, err := l.f.ReadAt(payload, off+recordHeader); err != nil {
			return off, nil
		}
		if checksum(kind, payload) != want {
			return off, nil
		}
		off += recordHeader + int64(length)
	}
}

// appendRecord seals one payload (header + body) onto buf.
func appendRecord(buf []byte, kind byte, payload []byte) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(kind)<<24|uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], checksum(kind, payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// parseHeader splits a record header into kind, payload length and crc.
func parseHeader(hdr []byte) (kind byte, length int, crc uint32) {
	word := binary.LittleEndian.Uint32(hdr)
	return byte(word >> 24), int(word & MaxRecord), binary.LittleEndian.Uint32(hdr[4:])
}

// checksum is the crc a record of the given kind carries.
func checksum(kind byte, payload []byte) uint32 {
	if kind == 0 {
		return crc32.ChecksumIEEE(payload)
	}
	return crc32.Update(crc32.ChecksumIEEE([]byte{kind}), crc32.IEEETable, payload)
}

// AppendBatch is AppendKind for records of kind 0.
func (l *Log) AppendBatch(payloads [][]byte) error { return l.AppendKind(0, payloads) }

// AppendKind writes every payload as its own record of the given kind with
// one write call and applies the sync policy once. It returns when all of
// them are written (and, if the policy says so, synced); records from
// concurrent appenders never interleave within one call's.
func (l *Log) AppendKind(kind byte, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return ErrTooLarge
		}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	buf := l.scratch[:0]
	for _, p := range payloads {
		buf = appendRecord(buf, kind, p)
	}
	_, err := l.f.WriteAt(buf, l.off)
	if err == nil {
		l.off += int64(len(buf))
		l.unsynced += len(payloads)
		l.stats.Records += int64(len(payloads))
		l.stats.GroupCommits++
	}
	if cap(buf) > maxScratch {
		buf = nil
	}
	l.scratch = buf
	end := l.off
	durable := l.opts.SyncOnAppend || (l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("walog: append: %w", err)
	}
	if !durable {
		return nil
	}
	return l.syncTo(end)
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error { return l.syncTo(l.Size()) }

// syncTo returns once an fsync that began after the log reached end has
// succeeded. It waits for the one running, if any; when that one began too
// early it issues the next, covering every record written up to its start.
func (l *Log) syncTo(end int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= end {
		return nil
	}
	l.mu.Lock()
	start, closed := l.off, l.closed
	l.unsynced = 0
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("walog: sync: %w", err)
	}
	l.synced = start
	l.mu.Lock()
	l.stats.Syncs++
	l.mu.Unlock()
	return nil
}

// Size returns the current log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// Stats returns a snapshot of the append counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Replay invokes fn for every valid record in order with the record's kind.
// A corrupt record ends replay without error (bounded-loss semantics);
// other I/O failures are reported.
func (l *Log) Replay(fn func(kind byte, payload []byte) error) error {
	return l.Records(func(_ int64, kind byte, payload []byte) error { return fn(kind, payload) })
}

// Records invokes fn for every valid record in order, passing the byte
// offset the record starts at and its kind — the exported record iteration used for
// replication shipping and hinted-handoff replay, where a consumer resumes
// from the offset it last acknowledged. Like Replay, a corrupt record ends
// iteration without error; other I/O failures are reported.
func (l *Log) Records(fn func(off int64, kind byte, payload []byte) error) error {
	l.mu.Lock()
	end := l.off
	l.mu.Unlock()
	var off int64
	hdr := make([]byte, recordHeader)
	for off < end {
		if _, err := l.f.ReadAt(hdr, off); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("walog: replay: %w", err)
		}
		kind, length, want := parseHeader(hdr)
		payload := make([]byte, length)
		if _, err := l.f.ReadAt(payload, off+recordHeader); err != nil {
			return nil
		}
		if checksum(kind, payload) != want {
			return nil
		}
		if err := fn(off, kind, payload); err != nil {
			return err
		}
		off += recordHeader + int64(length)
	}
	return nil
}

// Reset truncates the log to empty (after a successful batch flush the
// buffered points are durable in the page store and the log can recycle).
// Appends waiting behind the reset write after it, at the start of the
// recycled log.
func (l *Log) Reset() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("walog: reset: %w", err)
	}
	l.off, l.unsynced, l.synced = 0, 0, 0
	return nil
}

// Close fails subsequent appends with ErrClosed and closes the log file,
// after the append and the fsync running, if any.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
