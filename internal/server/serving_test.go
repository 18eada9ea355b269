package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"odh"
	"odh/internal/fault"
	"odh/internal/metrics"
)

// startServerWith spins up a historian with nSources registered sources
// of the quickstart schema and a server with explicit options.
func startServerWith(t testing.TB, nSources int, sopts Options) (addr string, srv *Server, h *odh.Historian) {
	t.Helper()
	h, err := odh.Open("", odh.Options{BatchSize: 64, QueryWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := h.CreateSchema(odh.SchemaType{
		Name: "environ",
		Tags: []odh.TagDef{{Name: "temperature"}, {Name: "wind"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CreateVirtualTable("environ_data_v", "environ"); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= int64(nSources); id++ {
		if _, err := h.RegisterSource(odh.DataSource{ID: id, SchemaID: schema.ID, Regular: true, IntervalMs: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	srv = NewWith(h, sopts)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return a.String(), srv, h
}

// TestCloseWithIdleClient is the drain regression: an idle client that
// never sends QUIT must not wedge Close (the old implementation waited
// forever for its command loop to exit).
func TestCloseWithIdleClient(t *testing.T) {
	addr, srv, _ := startServerWith(t, 1, Options{DrainTimeout: 10 * time.Second})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	fmt.Fprintln(conn, "PING")
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "PONG" {
		t.Fatalf("PING -> %q", line)
	}
	// Now idle. Close must return via the read-deadline poke, well before
	// the 10s drain timeout and without force-closing anything.
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v with an idle client", d)
	}
	if fc := srv.Stats().ForcedCloses; fc != 0 {
		t.Fatalf("ForcedCloses = %d, want 0 (graceful drain)", fc)
	}
	// The client was told why.
	line, _ := r.ReadString('\n')
	if !strings.HasPrefix(line, "ERR connection:") {
		t.Fatalf("drain notice = %q", line)
	}
}

// noDeadline hides the deadline methods of a transport, modeling one the
// drain poke cannot reach.
type noDeadline struct{ io.ReadWriteCloser }

// TestCloseForceClosesStuckConn: a transport without read deadlines keeps
// its reader blocked through the drain; Close must cut it off after
// DrainTimeout and count it.
func TestCloseForceClosesStuckConn(t *testing.T) {
	h, err := odh.Open("", odh.Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	srv := NewWith(h, Options{DrainTimeout: 100 * time.Millisecond})
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(noDeadline{serverEnd})
		close(done)
	}()
	// Let the session register before draining.
	r := bufio.NewReader(clientEnd)
	fmt.Fprintln(clientEnd, "PING")
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "PONG" {
		t.Fatalf("PING -> %q", line)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v", d)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after force-close")
	}
	if fc := srv.Stats().ForcedCloses; fc != 1 {
		t.Fatalf("ForcedCloses = %d, want 1", fc)
	}
}

// TestIdleTimeoutMidCommand: the idle deadline covers a client that
// stalls in the middle of a line, not just between commands.
func TestIdleTimeoutMidCommand(t *testing.T) {
	conn, hooked := newPipeServer(t, Options{IdleTimeout: 50 * time.Millisecond})
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("WRITE 1 10")); err != nil { // no newline
		t.Fatal(err)
	}
	reply := readLine(t, r)
	if !strings.HasPrefix(reply, "ERR connection:") {
		t.Fatalf("reply = %q, want ERR connection prefix", reply)
	}
	select {
	case err := <-hooked:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("hook got %v, want a timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnError hook never fired")
	}
}

// TestTornReadReportedAsERR injects a mid-stream read failure via
// fault.Conn: the session must end with an ordered ERR reply and the
// hook must see the injected error.
func TestTornReadReportedAsERR(t *testing.T) {
	h, err := odh.Open("", odh.Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	hooked := make(chan error, 4)
	srv := NewWith(h, Options{OnError: func(err error) { hooked <- err }})
	t.Cleanup(func() { srv.Close() })
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	fc := fault.WrapConn(serverEnd)
	fc.FailReadsAfter(1)
	fc.SetTornRead(3) // the dying read delivers a 3-byte prefix first
	done := make(chan struct{})
	go func() {
		srv.ServeConn(noDeadline{fc})
		close(done)
	}()
	r := bufio.NewReader(clientEnd)
	if _, err := clientEnd.Write([]byte("PING\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != "PONG" {
		t.Fatalf("PING -> %q", got)
	}
	// The torn read consumes only a prefix of this command, so with a
	// synchronous net.Pipe the Write cannot complete; it unblocks when
	// the server tears the connection down.
	go clientEnd.Write([]byte("FLUSH\n"))
	reply := readLine(t, r)
	if !strings.HasPrefix(reply, "ERR connection:") {
		t.Fatalf("reply = %q, want ERR connection prefix", reply)
	}
	select {
	case err := <-hooked:
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("hook got %v, want fault.ErrInjected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnError hook never fired")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after injected read failure")
	}
}

// TestAdmissionShedsAndRecovers: a frame that can never fit the byte
// budget gets a deterministic too-large ERR (retrying it is pointless);
// a frame that only fails because the budget is currently held gets
// "ERR busy" and is counted as shed; in both cases the bytes are never
// held and the connection keeps working.
func TestAdmissionShedsAndRecovers(t *testing.T) {
	addr, srv, _ := startServerWith(t, 1, Options{MaxInflightBytes: 64})
	c := dial(t, addr)
	c.send(t, "HELLO 3")
	if got := c.read(t); got != "HELLO 3" {
		t.Fatalf("HELLO -> %q", got)
	}
	// A 100-byte frame can never fit the 64-byte budget: deterministic
	// rejection, not the retryable-looking busy. The payload is garbage
	// on purpose — admission rejects before decoding.
	junk := make([]byte, 100)
	if _, err := c.conn.Write(append([]byte("BATCH 100\n"), junk...)); err != nil {
		t.Fatal(err)
	}
	if got := c.read(t); !strings.Contains(got, "never fit") {
		t.Fatalf("never-fitting frame -> %q, want a deterministic too-large ERR", got)
	}
	if shed := srv.Stats().BatchesShed; shed != 0 {
		t.Fatalf("BatchesShed = %d after a never-fitting frame, want 0", shed)
	}
	// Occupy most of the global budget so a one-point frame (30 bytes,
	// 56 decoded) that *could* fit is transiently rejected: that is a shed.
	holder := &serverConn{}
	if err := srv.admit(holder, 40, 40); err != nil {
		t.Fatal("could not stage the budget holder")
	}
	onePoint := []odh.Point{{Source: 1, TS: 1000, Values: []float64{1, 2}}}
	size := int64(len(mustEncode(t, onePoint)))
	if err := WriteBatchFrame(c.conn, onePoint); err != nil {
		t.Fatal(err)
	}
	if got := c.read(t); got != "ERR busy" {
		t.Fatalf("frame under held budget -> %q, want ERR busy", got)
	}
	// Budget released: the same frame is admitted and applied.
	srv.release(holder, 40)
	if err := WriteBatchFrame(c.conn, onePoint); err != nil {
		t.Fatal(err)
	}
	if got := c.read(t); got != "OK 1" {
		t.Fatalf("same frame after release -> %q", got)
	}
	st := srv.Stats()
	if st.BatchesShed != 1 || st.ShedBytes != size {
		t.Fatalf("shed counters = %d frames / %d bytes, want 1 / %d", st.BatchesShed, st.ShedBytes, size)
	}
	if st.QueuedBytes != 0 {
		t.Fatalf("QueuedBytes = %d after all frames applied, want 0", st.QueuedBytes)
	}
}

// TestQueryTimeoutOverWire is the acceptance scenario: a 200k-point
// fixture, a 1ms query timeout, a full-scan SQL that must come back ERR
// promptly and count in Stats.QueriesTimedOut — while BATCH ingest on a
// second connection continues un-shed.
func TestQueryTimeoutOverWire(t *testing.T) {
	addr, srv, h := startServerWith(t, 2, Options{QueryTimeout: time.Millisecond})
	w := h.Writer()
	points := make([]odh.Point, 0, 200_000)
	for i := 0; i < 200_000; i++ {
		points = append(points, odh.Point{Source: 1, TS: int64(i) * 1000, Values: []float64{float64(i % 100), 1.5}})
	}
	if err := w.WriteBatch(points); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Concurrent ingest on its own connection and source.
	stop := make(chan struct{})
	ingestErr := make(chan error, 1)
	go func() {
		defer close(ingestErr)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			ingestErr <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		fmt.Fprintln(conn, "HELLO 3")
		if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "HELLO 3" {
			ingestErr <- fmt.Errorf("HELLO -> %q", line)
			return
		}
		ts := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]odh.Point, 100)
			for i := range batch {
				ts += 1000
				batch[i] = odh.Point{Source: 2, TS: ts, Values: []float64{1, 2}}
			}
			if err := WriteBatchFrame(conn, batch); err != nil {
				ingestErr <- err
				return
			}
			line, err := r.ReadString('\n')
			if err != nil {
				ingestErr <- err
				return
			}
			if got := strings.TrimSpace(line); got != "OK 100" {
				ingestErr <- fmt.Errorf("BATCH during query load -> %q", got)
				return
			}
		}
	}()

	c := dial(t, addr)
	deadline := time.Now().Add(30 * time.Second)
	c.conn.SetReadDeadline(deadline)
	c.send(t, "SQL SELECT timestamp, temperature FROM environ_data_v WHERE id = 1")
	sawErr := ""
	for {
		line := c.read(t)
		if strings.HasPrefix(line, "ERR") {
			sawErr = line
			break
		}
		if strings.HasPrefix(line, "OK") {
			break
		}
	}
	if !strings.Contains(sawErr, "deadline exceeded") {
		t.Fatalf("full scan under 1ms timeout finished without a deadline error (last line %q)", sawErr)
	}
	if n := srv.Stats().QueriesTimedOut; n < 1 {
		t.Fatalf("QueriesTimedOut = %d, want >= 1", n)
	}
	close(stop)
	if err := <-ingestErr; err != nil {
		t.Fatalf("concurrent ingest failed: %v", err)
	}
	if shed := srv.Stats().BatchesShed; shed != 0 {
		t.Fatalf("BatchesShed = %d during query load, want 0", shed)
	}
}

// TestManyConnSoak is the CI soak: 50 connections mixing BATCH ingest,
// WRITE lines, and SQL, under the default admission budget; nothing may
// shed, every reply must be well formed, and the final drain must be
// clean. Sized to stay fast under -race.
func TestManyConnSoak(t *testing.T) {
	const conns = 50
	const rounds = 8
	addr, srv, _ := startServerWith(t, conns, Options{IdleTimeout: 30 * time.Second})
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			expect := func(want string, ctx string) bool {
				line, err := r.ReadString('\n')
				if err != nil {
					errs <- fmt.Errorf("conn %d %s: %v", g, ctx, err)
					return false
				}
				if got := strings.TrimSpace(line); got != want {
					errs <- fmt.Errorf("conn %d %s: %q, want %q", g, ctx, got, want)
					return false
				}
				return true
			}
			fmt.Fprintln(conn, "HELLO 3")
			if !expect("HELLO 3", "HELLO") {
				return
			}
			src := int64(g + 1)
			ts := int64(0)
			for round := 0; round < rounds; round++ {
				batch := make([]odh.Point, 50)
				for i := range batch {
					ts += 1000
					batch[i] = odh.Point{Source: src, TS: ts, Values: []float64{float64(round), 2}}
				}
				if err := WriteBatchFrame(conn, batch); err != nil {
					errs <- fmt.Errorf("conn %d frame: %v", g, err)
					return
				}
				if !expect("OK 50", "BATCH") {
					return
				}
				ts += 1000
				fmt.Fprintf(conn, "WRITE %d %d 7 null\n", src, ts)
				if !expect("OK", "WRITE") {
					return
				}
				fmt.Fprintf(conn, "SQL SELECT COUNT(*) FROM environ_data_v WHERE id = %d\n", src)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						errs <- fmt.Errorf("conn %d SQL: %v", g, err)
						return
					}
					got := strings.TrimSpace(line)
					if strings.HasPrefix(got, "ERR") {
						errs <- fmt.Errorf("conn %d SQL: %q", g, got)
						return
					}
					if strings.HasPrefix(got, "OK") {
						break
					}
				}
			}
			fmt.Fprintln(conn, "QUIT")
			expect("BYE", "QUIT")
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	if st.BatchesShed != 0 {
		t.Errorf("BatchesShed = %d under the default budget, want 0", st.BatchesShed)
	}
	wantPoints := int64(conns * rounds * 51)
	if st.PointsIngested != wantPoints {
		t.Errorf("PointsIngested = %d, want %d", st.PointsIngested, wantPoints)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if fc := srv.Stats().ForcedCloses; fc != 0 {
		t.Errorf("ForcedCloses = %d after clean soak, want 0", fc)
	}
}

// TestLongReplyAfterIdleGap: every socket write of a reply gets a fresh
// WriteTimeout. A client idle for longer than the timeout that then asks
// for a reply larger than the 64 KiB reply buffer must get all of it; the
// buffer's flushes inside the query used to write under the deadline the
// previous command's reply had set, long expired, and cut the session.
func TestLongReplyAfterIdleGap(t *testing.T) {
	const rows = 20_000
	addr, _, h := startServerWith(t, 1, Options{WriteTimeout: 200 * time.Millisecond})
	points := make([]odh.Point, rows)
	for i := range points {
		points[i] = odh.Point{Source: 1, TS: int64(i+1) * 1000, Values: []float64{float64(i % 100), 1.5}}
	}
	if err := h.Writer().WriteBatch(points); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	c.send(t, "PING")
	if got := c.read(t); got != "PONG" {
		t.Fatalf("PING -> %q", got)
	}
	time.Sleep(500 * time.Millisecond)
	c.send(t, "SQL SELECT * FROM environ_data_v")
	n := -1 // the header line
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d rows: %v", n, err)
		}
		if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			if got, want := strings.TrimSpace(line), fmt.Sprintf("OK %d", rows); got != want || n != rows {
				t.Fatalf("reply ended %q after %d rows, want %q after %d", got, n, want, rows)
			}
			return
		}
		n++
	}
}

// TestStatsSnapshotsUnderLoad reads both counter surfaces, the server's
// Stats and the historian's TotalStats, in a loop while clients ingest
// frames and query on their own goroutines: under -race each snapshot is
// an atomic read of the live counters, no counter ever goes down (the
// gauges aside), and once the clients are done PointsWritten and
// PointsIngested equal the points the server acked.
func TestStatsSnapshotsUnderLoad(t *testing.T) {
	const clients, rounds, frame = 4, 30, 50
	addr, srv, h := startServerWith(t, clients, Options{})
	gauges := map[string]bool{"conns_active": true, "queued_bytes": true, "blob_cache_size_bytes": true, "blob_cache_entries": true}
	snapshot := func() map[string]int64 {
		m := map[string]int64{}
		for _, st := range []any{srv.Stats(), h.TotalStats()} {
			metrics.Walk(st, func(name string, v any) {
				if n, ok := v.(int64); ok && !gauges[name] {
					m[name] = n
				}
			})
		}
		return m
	}
	done := make(chan struct{})
	reader := make(chan int)
	go func() {
		prev, reads := snapshot(), 0
		for {
			select {
			case <-done:
				reader <- reads
				return
			default:
			}
			cur := snapshot()
			for name, n := range cur {
				if n < prev[name] {
					t.Errorf("%s went down: %d after %d", name, n, prev[name])
				}
			}
			prev = cur
			reads++
		}
	}()
	var wg sync.WaitGroup
	acked := make([]int64, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			r := bufio.NewReader(c)
			line := func() string {
				s, err := r.ReadString('\n')
				if err != nil {
					t.Errorf("client %d: %v", g, err)
				}
				return strings.TrimSpace(s)
			}
			fmt.Fprintln(c, "HELLO 3")
			if got := line(); got != "HELLO 3" {
				t.Errorf("client %d: HELLO -> %q", g, got)
				return
			}
			src, ts := int64(g+1), int64(0)
			for round := 0; round < rounds; round++ {
				batch := make([]odh.Point, frame)
				for i := range batch {
					ts += 1000
					batch[i] = odh.Point{Source: src, TS: ts, Values: []float64{float64(i), 1}}
				}
				if err := WriteBatchFrame(c, batch); err != nil {
					t.Errorf("client %d: %v", g, err)
					return
				}
				var n int64
				if got := line(); !strings.HasPrefix(got, "OK ") {
					t.Errorf("client %d: BATCH -> %q", g, got)
					return
				} else if n, err = strconv.ParseInt(got[3:], 10, 64); err != nil {
					t.Errorf("client %d: BATCH -> %q", g, got)
					return
				}
				acked[g] += n
				fmt.Fprintf(c, "SQL SELECT id, COUNT(*), MIN(temperature) FROM environ_data_v WHERE id = %d GROUP BY id\n", src)
				for got := line(); !strings.HasPrefix(got, "OK"); got = line() {
					if strings.HasPrefix(got, "ERR") || got == "" {
						t.Errorf("client %d: SQL -> %q", g, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if reads := <-reader; reads == 0 {
		t.Fatal("no snapshot was taken while the clients ran")
	}
	var want int64
	for _, n := range acked {
		want += n
	}
	if want != clients*rounds*frame {
		t.Fatalf("acked %d points, want %d", want, clients*rounds*frame)
	}
	if got := h.TotalStats().PointsWritten; got != want {
		t.Errorf("PointsWritten = %d, want the %d points acked", got, want)
	}
	if got := srv.Stats().PointsIngested; got != want {
		t.Errorf("PointsIngested = %d, want the %d points acked", got, want)
	}
}
