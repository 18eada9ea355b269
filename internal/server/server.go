// Package server implements the historian's network endpoint: the role
// of the paper's data servers in Figure 2, accepting operational writes
// and SQL over a minimal TCP protocol.
//
// Text commands (protocol version 1, the default):
//
//	HELLO <version>                        -> "HELLO <negotiated>"
//	WRITE <source> <ts-ms> <v1> [v2 ...]   -> "OK" | "ERR <msg>"
//	SQL <statement>                        -> header, rows, "OK <n>" | "ERR <msg>"
//	FLUSH                                  -> "OK" | "ERR <msg>"
//	PING                                   -> "PONG"
//	STATS                                  -> "<name> <value>" lines, "OK"
//	QUIT                                   -> "BYE" and closes the connection
//
// FLUSH is the historian's checkpoint (odh.Historian.Flush): "OK" means
// every point this server acked before it is in committed pages. STATS
// names every counter, the server's (Stats) then the historian's
// (odh.HistorianStats), in snake_case (metrics.Walk).
//
// NULL tag values are spelled "null" in WRITE; non-finite values (nan,
// inf) are rejected because NaN is the storage engine's NULL sentinel.
// Responses to SQL are tab-separated; EXPLAIN output is returned verbatim
// followed by "OK 0".
//
// After "HELLO 3" the connection may also send binary batch frames, each
// decoded once and logged as received (layout in proto.go):
//
//	BATCH <payloadLen>\n<payload>          -> "OK <npoints>" | "ERR busy" | "ERR <msg>"
//
// Each connection runs a reader goroutine (parse + admission) and an
// applier goroutine (execute + reply) joined by a bounded queue, so a
// client can pipeline frames while earlier ones are applied, replies stay
// in command order, and the memory held per connection stays bounded.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odh"
	"odh/internal/metrics"
	"odh/internal/relational"
)

// Default budgets and timeouts (see Options).
const (
	DefaultMaxInflightBytes = 64 << 20
	DefaultDrainTimeout     = 5 * time.Second
)

// Options tunes server behavior. The zero value keeps the defaults.
type Options struct {
	// IdleTimeout, when > 0, disconnects a connection that sends no
	// complete command for this long (applied as a per-read deadline on
	// connections that support deadlines; others are unaffected).
	IdleTimeout time.Duration
	// WriteTimeout, when > 0, bounds how long each socket write of a
	// reply may block on a client that stopped reading; on expiry the
	// session is dropped (slow-client backpressure). Transports without
	// write deadlines are unaffected.
	WriteTimeout time.Duration
	// QueryTimeout, when > 0, bounds each SQL command; an expired query
	// is answered with ERR and counted in Stats.QueriesTimedOut.
	QueryTimeout time.Duration
	// DrainTimeout bounds Close's graceful drain: connections that have
	// not finished their in-flight commands by then are force-closed
	// (default DefaultDrainTimeout).
	DrainTimeout time.Duration
	// MaxInflightBytes budgets BATCH frames admitted but not yet applied,
	// across all connections (default DefaultMaxInflightBytes), each
	// charged the larger of its payload and its decoded size. A frame that
	// would exceed it is discarded and answered "ERR busy"; one larger
	// than the budget itself, which no retry could get admitted, gets a
	// deterministic too-large ERR instead. One connection may hold a
	// quarter of it, or all of it when a quarter is less than one
	// maximum-size frame, enforced the same way.
	MaxInflightBytes int64
	// OnError, when non-nil, is invoked with every connection-level
	// failure the protocol loop hits: read failures (oversized lines,
	// torn connections), idle-timeout disconnects, and drain cutoffs.
	// Command errors are reported to the client as ERR replies, not here.
	OnError func(err error)
}

// Server accepts connections and serves the protocol over a historian.
type Server struct {
	h    *odh.Historian
	opts Options
	ln   net.Listener
	wg   sync.WaitGroup

	globalBudget int64
	connBudget   int64

	mu     sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool

	drainCh chan struct{} // closed when Close begins draining

	// stats is the live record of the serving layer's counters, bumped
	// with atomic.AddInt64 so the hot paths stay lock-free (see Stats).
	stats *Stats
}

// Stats is the serving layer's counters, the first lines of the STATS
// reply. A Server holds one Stats as its live counters, allocated on its
// own so every field is 8-byte aligned: writers bump a field with
// atomic.AddInt64 (admission checks its budget against the QueuedBytes
// that add returns), and Server.Stats reads them all through
// metrics.Snapshot.
type Stats struct {
	// ConnsAccepted counts sessions ever started; ConnsActive counts
	// sessions currently open.
	ConnsAccepted int64
	ConnsActive   int64
	// FramesIngested / PointsIngested count applied BATCH frames and the
	// points they carried plus per-line WRITEs.
	FramesIngested int64
	PointsIngested int64
	// BatchesShed / ShedBytes count frames rejected by admission control.
	BatchesShed int64
	ShedBytes   int64
	// QueuedBytes is the admission budget currently held by frames
	// admitted but not yet applied.
	QueuedBytes int64
	// QueriesTimedOut counts SQL commands that hit the query timeout.
	QueriesTimedOut int64
	// ForcedCloses counts connections cut off by the drain timeout.
	ForcedCloses int64
}

// NewWith wraps a historian with explicit options.
func NewWith(h *odh.Historian, opts Options) *Server {
	if opts.MaxInflightBytes <= 0 {
		opts.MaxInflightBytes = DefaultMaxInflightBytes
	}
	connBudget := opts.MaxInflightBytes / 4
	if connBudget < MaxBatchFrameBytes {
		connBudget = opts.MaxInflightBytes
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	return &Server{
		h:            h,
		opts:         opts,
		globalBudget: opts.MaxInflightBytes,
		connBudget:   connBudget,
		conns:        make(map[*serverConn]struct{}),
		drainCh:      make(chan struct{}),
		stats:        new(Stats),
	}
}

// Stats snapshots the serving-layer counters.
func (s *Server) Stats() Stats { return metrics.Snapshot(s.stats) }

// writeStats renders the STATS reply: the serving layer's counters, then
// the historian's, one "<name> <value>" line each (metrics.Walk).
func (s *Server) writeStats(out io.Writer) {
	for _, st := range []any{s.Stats(), s.h.TotalStats()} {
		metrics.Walk(st, func(name string, v any) { fmt.Fprintln(out, name, v) })
	}
	fmt.Fprintln(out, "OK")
}

// reportError invokes the error hook, if any.
func (s *Server) reportError(err error) {
	if s.opts.OnError != nil && err != nil {
		s.opts.OnError(err)
	}
}

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// track registers a live session; it fails once draining began.
func (s *Server) track(sc *serverConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[sc] = struct{}{}
	return true
}

func (s *Server) untrack(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// Listen starts accepting on addr and returns the bound address (useful
// with ":0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Close drains the server: it stops accepting, stops reading new
// commands, lets in-flight commands finish, and after DrainTimeout
// force-closes whatever is left (counted in Stats.ForcedCloses). It
// always returns — an idle client that never sends QUIT cannot wedge
// shutdown. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.drainCh)
	// Poke blocked readers: an expired read deadline turns the blocking
	// read into an error, which the reader reports as a drain cutoff.
	for sc := range s.conns {
		if sc.dc != nil {
			_ = sc.dc.SetReadDeadline(time.Now())
		}
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		s.mu.Lock()
		for sc := range s.conns {
			atomic.AddInt64(&s.stats.ForcedCloses, 1)
			sc.forceClose()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// handleWrite parses and applies one WRITE command.
func (s *Server) handleWrite(w *odh.Writer, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return fmt.Errorf("WRITE needs source, ts, and at least one value")
	}
	source, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad source: %w", err)
	}
	ts, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad timestamp: %w", err)
	}
	values := make([]float64, len(fields)-2)
	for i, f := range fields[2:] {
		if strings.EqualFold(f, "null") {
			values[i] = odh.NullValue
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", f, err)
		}
		// ParseFloat accepts "nan" and "inf", but NaN is the storage
		// engine's NULL sentinel and Inf breaks summary arithmetic;
		// neither may enter through the wire as a plain value.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value %q (spell NULL as null)", f)
		}
		values[i] = v
	}
	return w.WritePoint(source, ts, values...)
}

// handleSQL executes one SQL command under the server's query timeout and
// streams the result: a header line, one line per row — its cells' text
// separated by tabs, appended into one reused buffer and written once —
// then "OK n".
func (s *Server) handleSQL(out io.Writer, sql string) {
	ctx := context.Background()
	if s.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
		defer cancel()
	}
	res, err := s.h.QueryContext(ctx, sql)
	if err != nil {
		s.noteQueryErr(err)
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	if res.PlanText != "" {
		for _, line := range strings.Split(strings.TrimRight(res.PlanText, "\n"), "\n") {
			fmt.Fprintln(out, line)
		}
		fmt.Fprintln(out, "OK 0")
		return
	}
	if res.Columns == nil {
		fmt.Fprintf(out, "OK %d\n", res.RowsAffected)
		return
	}
	fmt.Fprintln(out, strings.Join(res.Columns, "\t"))
	n := 0
	line := make([]byte, 0, 256)
	var rr relational.RowRenderer
	for {
		row, ok, err := res.Next()
		if err != nil {
			s.noteQueryErr(err)
			fmt.Fprintf(out, "ERR %v\n", err)
			return
		}
		if !ok {
			break
		}
		line = append(rr.AppendRow(line[:0], row, "\t"), '\n')
		out.Write(line)
		n++
	}
	out.Write(append(strconv.AppendInt(append(line[:0], "OK "...), int64(n), 10), '\n'))
}

// noteQueryErr counts timeout-caused query failures.
func (s *Server) noteQueryErr(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		atomic.AddInt64(&s.stats.QueriesTimedOut, 1)
	}
}
