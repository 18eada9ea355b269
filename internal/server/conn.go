package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odh"
)

// maxLineBytes caps one text protocol line, matching the historical
// scanner limit; longer lines end the session with bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// workQueueDepth bounds the number of parsed-but-unapplied commands per
// connection. The byte budget (admission.go) bounds their memory; this
// bounds their count so a flood of tiny commands cannot queue unbounded
// work either. A full queue blocks the reader, which stops draining the
// socket — backpressure via TCP flow control.
const workQueueDepth = 32

// maxDiscardBytes bounds how many declared-but-rejected payload bytes
// the server will skip to keep a stream in sync. A BATCH length beyond
// this is not a client staying in protocol — it is garbage or an attempt
// to tarpit the reader in a near-endless discard — so it ends the
// session instead.
const maxDiscardBytes = 4 * MaxBatchFrameBytes

// errServerClosing ends sessions cut off by a drain; errBusy answers a
// frame admission sheds.
var errServerClosing, errBusy = errors.New("server shutting down"), errors.New("busy")

// errLineTooLong wraps bufio.ErrTooLong so hooks can errors.Is on it.
var errLineTooLong = fmt.Errorf("line exceeds %d bytes: %w", maxLineBytes, bufio.ErrTooLong)

// Work item kinds. The reader parses and admits; the applier executes and
// replies. Because items flow through one ordered queue, every reply —
// including sheds and the final connection error — lands in command order.
const (
	itemLine  = iota // text command to execute
	itemReply        // precomputed reply line (HELLO)
	itemBatch        // decoded binary frame holding an admission reservation
	itemErr          // refused (by admission: errBusy, "ERR busy"): reply "ERR <err>"
	itemFatal        // read side failed: reply "ERR connection: <err>", close
)

type workItem struct {
	kind     int
	line     string
	frame    odh.Frame
	reserved int64 // admission bytes released after apply
	err      error
}

// deadlineConn is the subset of net.Conn the idle timeout needs;
// net.Pipe ends satisfy it too.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
}

// writeDeadlineConn is the subset slow-client backpressure needs.
type writeDeadlineConn interface {
	io.Writer
	SetWriteDeadline(t time.Time) error
}

// deadlineWriter gives every socket write a fresh WriteTimeout deadline,
// so each flush of a long reply gets the whole timeout, not what is left
// of one an earlier command set.
type deadlineWriter struct {
	writeDeadlineConn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	// Only a closed transport refuses a deadline, and its Write fails.
	_ = w.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.writeDeadlineConn.Write(p)
}

// serverConn is one client session: a reader goroutine (readLoop) that
// parses commands and admits ingest frames, and an applier goroutine
// (ServeConn's body) that executes them and writes ordered replies.
type serverConn struct {
	s   *Server
	c   io.ReadWriteCloser
	dc  deadlineConn // nil: transport has no read deadlines
	r   *bufio.Reader
	out *bufio.Writer

	work    chan workItem
	queued  atomic.Int64 // admitted payload bytes held by this conn
	version int          // negotiated protocol version

	closeOnce sync.Once
}

// forceClose tears the transport down (drain timeout expiry).
func (sc *serverConn) forceClose() {
	sc.closeOnce.Do(func() { sc.c.Close() })
}

// ServeConn runs the protocol on one connection until EOF, QUIT, a read
// failure, an idle timeout, or a server drain. Read failures (an
// oversized line, a torn connection, an expired idle deadline) are
// answered with a final ERR line so the client sees why the session
// ended, and handed to the OnError hook.
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	s.wg.Add(1)
	defer s.wg.Done()
	var out io.Writer = conn
	if wdc, ok := conn.(writeDeadlineConn); ok && s.opts.WriteTimeout > 0 {
		out = deadlineWriter{wdc, s.opts.WriteTimeout}
	}
	sc := &serverConn{
		s:       s,
		c:       conn,
		r:       bufio.NewReaderSize(conn, 64*1024),
		out:     bufio.NewWriterSize(out, 64*1024),
		work:    make(chan workItem, workQueueDepth),
		version: ProtoVersionText,
	}
	sc.dc, _ = conn.(deadlineConn)
	if !s.track(sc) {
		sc.forceClose()
		return
	}
	defer s.untrack(sc)
	defer sc.forceClose()
	atomic.AddInt64(&s.stats.ConnsAccepted, 1)
	atomic.AddInt64(&s.stats.ConnsActive, 1)
	defer atomic.AddInt64(&s.stats.ConnsActive, -1)

	go sc.readLoop()
	sc.applyLoop()
	// The applier is done replying; unblock and drain a reader that may
	// still be parsing (e.g. the applier hit a write failure mid-queue).
	sc.forceClose()
	for item := range sc.work {
		s.release(sc, item.reserved)
	}
}

// armReadDeadline applies the idle timeout before a blocking read.
func (sc *serverConn) armReadDeadline() {
	if sc.dc != nil && sc.s.opts.IdleTimeout > 0 {
		_ = sc.dc.SetReadDeadline(time.Now().Add(sc.s.opts.IdleTimeout))
	}
}

// readLine reads one \n-terminated line, enforcing maxLineBytes. Unlike
// bufio.Scanner it keeps the underlying reader usable afterwards, which
// the binary payload reads require.
func (sc *serverConn) readLine() (string, error) {
	var buf []byte
	for {
		frag, err := sc.r.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(buf) >= maxLineBytes {
				return "", errLineTooLong
			}
			continue
		}
		return "", err
	}
	return strings.TrimRight(string(buf), "\r\n"), nil
}

// readLoop parses the inbound stream into work items. It owns the read
// half of the connection and the protocol version state; it never writes.
func (sc *serverConn) readLoop() {
	defer close(sc.work)
	for {
		if sc.s.draining() {
			sc.work <- workItem{kind: itemFatal, err: errServerClosing}
			return
		}
		sc.armReadDeadline()
		line, err := sc.readLine()
		if err != nil {
			if err == io.EOF {
				return // client hung up cleanly
			}
			if sc.s.draining() {
				err = errServerClosing
			}
			sc.work <- workItem{kind: itemFatal, err: err}
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch strings.ToUpper(cmd) {
		case "HELLO":
			sc.work <- sc.negotiate(rest)
		case "BATCH":
			item, fatal := sc.readBatch(rest)
			sc.work <- item
			if fatal {
				return
			}
		case "QUIT":
			sc.work <- workItem{kind: itemLine, line: line}
			return // the applier replies BYE and closes
		default:
			sc.work <- workItem{kind: itemLine, line: line}
		}
	}
}

// negotiate handles HELLO <version>: the session speaks
// min(proposal, ProtoVersionMax), echoed back as "HELLO <version>".
func (sc *serverConn) negotiate(rest string) workItem {
	v, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || v < ProtoVersionText {
		return workItem{kind: itemErr, err: fmt.Errorf("HELLO needs a version >= %d", ProtoVersionText)}
	}
	if v > ProtoVersionMax {
		v = ProtoVersionMax
	}
	sc.version = v // reader-owned: affects only later parsing
	return workItem{kind: itemReply, line: fmt.Sprintf("HELLO %d", v)}
}

// readBatch consumes one BATCH frame: header validation, admission, then
// payload read + decode. Whenever the header parsed, the payload is
// consumed (applied, or discarded on shed/reject) so the stream stays in
// sync; fatal is true only when the read side itself failed.
func (sc *serverConn) readBatch(rest string) (workItem, bool) {
	n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if err != nil || n < 0 {
		return workItem{kind: itemErr, err: fmt.Errorf("bad BATCH length %q", rest)}, false
	}
	if n > maxDiscardBytes {
		return workItem{kind: itemFatal, err: fmt.Errorf("BATCH length %d exceeds any protocol limit (frame cap %d)", n, MaxBatchFrameBytes)}, true
	}
	switch {
	case sc.version < ProtoVersionBinary:
		err = fmt.Errorf("BATCH requires HELLO %d", ProtoVersionBinary)
	case n > MaxBatchFrameBytes:
		err = fmt.Errorf("frame of %d bytes exceeds the %d-byte cap", n, MaxBatchFrameBytes)
	default:
		err = sc.s.admit(sc, n, n)
	}
	sc.armReadDeadline()
	if err != nil {
		if _, derr := io.CopyN(io.Discard, sc.r, n); derr != nil {
			return workItem{kind: itemFatal, err: derr}, true
		}
		return workItem{kind: itemErr, err: err}, false
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(sc.r, payload); err != nil {
		sc.s.release(sc, n)
		return workItem{kind: itemFatal, err: fmt.Errorf("reading %d-byte frame: %w", n, err)}, true
	}
	// The frame is charged the larger of its payload and its decoded size,
	// which its header tells before anything is allocated.
	charge := n
	f, err := decodeBatch(payload, func(decoded int64) (err error) {
		if decoded > n {
			if err = sc.s.admit(sc, decoded-n, decoded); err == nil {
				charge = decoded
			}
		}
		return err
	})
	if err != nil {
		sc.s.release(sc, charge)
		return workItem{kind: itemErr, err: err}, false
	}
	return workItem{kind: itemBatch, frame: f, reserved: charge}, false
}

// applyLoop executes work items in order and writes every reply. It is
// the connection's only writer, so no reply interleaving is possible.
func (sc *serverConn) applyLoop() {
	w := sc.s.h.Writer()
	for item := range sc.work {
		var failed bool
		switch item.kind {
		case itemFatal:
			sc.s.reportError(item.err)
			fmt.Fprintf(sc.out, "ERR connection: %v\n", item.err)
			sc.out.Flush()
			return
		case itemReply:
			fmt.Fprintln(sc.out, item.line)
		case itemErr:
			fmt.Fprintf(sc.out, "ERR %v\n", item.err)
		case itemBatch:
			err := w.WriteFrame(item.frame)
			sc.s.release(sc, item.reserved)
			if n := len(item.frame.Points()); err != nil {
				fmt.Fprintf(sc.out, "ERR %v\n", err)
			} else {
				atomic.AddInt64(&sc.s.stats.FramesIngested, 1)
				atomic.AddInt64(&sc.s.stats.PointsIngested, int64(n))
				fmt.Fprintf(sc.out, "OK %d\n", n)
			}
		case itemLine:
			failed = sc.applyLine(w, item.line)
		}
		if failed || sc.out.Flush() != nil {
			return // ServeConn drains remaining reservations
		}
	}
}

// applyLine executes one text command; it returns true when the session
// should end (QUIT).
func (sc *serverConn) applyLine(w *odh.Writer, line string) (quit bool) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "PING":
		fmt.Fprintln(sc.out, "PONG")
	case "FLUSH":
		if err := w.Flush(); err != nil {
			fmt.Fprintf(sc.out, "ERR %v\n", err)
		} else {
			fmt.Fprintln(sc.out, "OK")
		}
	case "WRITE":
		if err := sc.s.handleWrite(w, rest); err != nil {
			fmt.Fprintf(sc.out, "ERR %v\n", err)
		} else {
			atomic.AddInt64(&sc.s.stats.PointsIngested, 1)
			fmt.Fprintln(sc.out, "OK")
		}
	case "SQL":
		sc.s.handleSQL(sc.out, rest)
	case "STATS":
		sc.s.writeStats(sc.out)
	case "QUIT":
		fmt.Fprintln(sc.out, "BYE")
		sc.out.Flush()
		return true
	default:
		fmt.Fprintf(sc.out, "ERR unknown command %q\n", cmd)
	}
	return false
}
