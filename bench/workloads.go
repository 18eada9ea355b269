package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odh"
	"odh/internal/iotx"
	"odh/internal/server"
)

// clock fixes one run's phases: warm-up before tb, the measured window
// [tb, tc). A request belongs to the window when it starts (or, open
// loop, is due) inside it. In a traced run the window is cut into
// slices that alternate untraced and traced, so both rates come from the
// same window and drift cancels.
type clock struct {
	tb, tc time.Time
	trace  bool
	slice  time.Duration
}

func (c clock) counted(start time.Time) bool { return !start.Before(c.tb) && start.Before(c.tc) }

func (c clock) tracing(start time.Time) bool {
	return c.trace && c.counted(start) && int(start.Sub(c.tb)/c.slice)%2 == 1
}

// windowSlices is how many slices a traced run cuts its window into.
const windowSlices = 10

// classStats accumulates one request class inside the window.
type classStats struct {
	lat    histogram
	done   int   // verified requests
	failed int   // ERR, ERR busy, wrong, short or long result
	rows   int64 // points acked or result rows
	bytes  int64 // reply bytes
}

func (s *classStats) merge(o *classStats) {
	s.lat.merge(&o.lat)
	s.done += o.done
	s.failed += o.failed
	s.rows += o.rows
	s.bytes += o.bytes
}

// span is one traced call. Spans of one request share TraceID; Parent
// is the name of the span one rung up ("" for the wire request).
type span struct {
	TraceID int64  `json:"trace_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start"`
	EndNs   int64  `json:"end"`
	Parent  string `json:"parent"`
}

// sampled is a window request kept for the ladder to replay.
type sampled struct {
	traceID int64
	req     request // queries
	payload []byte  // frames
	wire    time.Duration
}

// connStats is everything one client goroutine measured. Each goroutine
// owns its own; they are merged after the window.
type connStats struct {
	frames  classStats
	queries classStats
	tmpl    map[string]*classStats
	late    histogram // open loop: send time minus due time

	ackedPoints int64 // over the connection's whole life, for COUNT(*)

	// Requests finished in traced and in untraced slices.
	tracedDone, untracedDone int
	spans                    []span
	samples                  []sampled
	perTmplSamples           map[string]int

	errs []error // first few failures, for the report
}

func newConnStats() *connStats {
	return &connStats{tmpl: map[string]*classStats{}, perTmplSamples: map[string]int{}}
}

func (st *connStats) fail(cs *classStats, err error) {
	cs.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, err)
	}
}

func (st *connStats) merge(o *connStats) {
	st.frames.merge(&o.frames)
	st.queries.merge(&o.queries)
	for name, cs := range o.tmpl {
		if st.tmpl[name] == nil {
			st.tmpl[name] = &classStats{}
		}
		st.tmpl[name].merge(cs)
	}
	st.late.merge(&o.late)
	st.ackedPoints += o.ackedPoints
	st.tracedDone += o.tracedDone
	st.untracedDone += o.untracedDone
	st.spans = append(st.spans, o.spans...)
	st.samples = append(st.samples, o.samples...)
	st.errs = append(st.errs, o.errs...)
}

// traceIDs hands out span identifiers across goroutines.
var traceIDs atomic.Int64

// note books one verified window request, in a traced run, against the
// traced or the untraced slices; in traced slices it records the wire
// span and keeps up to limit samples per class for the ladder.
func (st *connStats) note(clk clock, class string, start, end time.Time, limit int, keep func(*sampled)) {
	if !clk.tracing(start) {
		st.untracedDone++
		return
	}
	st.tracedDone++
	id := traceIDs.Add(1)
	st.spans = append(st.spans, span{TraceID: id, Name: "wire." + class,
		StartNs: start.Sub(clk.tb).Nanoseconds(), EndNs: end.Sub(clk.tb).Nanoseconds()})
	if st.perTmplSamples[class] < limit {
		st.perTmplSamples[class]++
		s := sampled{traceID: id, wire: end.Sub(start)}
		keep(&s)
		st.samples = append(st.samples, s)
	}
}

// ingestClosedLoop streams frames from next over c, waiting for each
// OK, until the window closes.
func ingestClosedLoop(c *client, next func() []odh.Point, clk clock, limit int, st *connStats) error {
	for {
		points := next()
		payload, err := server.EncodeBatchFrame(points)
		if err != nil {
			return err
		}
		start := time.Now()
		if !start.Before(clk.tc) {
			return nil
		}
		if err := c.sendFrame(payload); err != nil {
			return fmt.Errorf("send frame: %w", err)
		}
		n, err := c.readAck()
		end := time.Now()
		if err != nil && err != errBusy {
			return fmt.Errorf("read ack: %w", err)
		}
		st.ackedPoints += int64(n)
		if !clk.counted(start) {
			continue
		}
		switch {
		case err != nil:
			st.fail(&st.frames, err)
		case n != len(points):
			st.fail(&st.frames, fmt.Errorf("frame of %d points acked as %d", len(points), n))
		default:
			st.frames.done++
			st.frames.rows += int64(n)
			st.frames.lat.record(end.Sub(start))
			st.note(clk, "batch", start, end, limit, func(s *sampled) { s.payload = payload })
		}
	}
}

// queryClosedLoop sends the cycle's templates one after another, each
// after the previous reply, checking every result against the oracle. A
// reply that is an ERR line, or whose rows or COUNT total differ from
// what the generator loaded, is a failed request.
func queryClosedLoop(c *client, cycle []string, next func(tmpl string) request, clk clock, limit int, st *connStats) error {
	for k := 0; ; k++ {
		req := next(cycle[k%len(cycle)])
		start := time.Now()
		if !start.Before(clk.tc) {
			return nil
		}
		rep, err := c.query(req.sql, req.sumCol)
		end := time.Now()
		var refused serverError
		if err != nil && !errors.As(err, &refused) {
			return err // the connection itself broke
		}
		if err == nil {
			err = req.check(rep)
		}
		if !clk.counted(start) {
			if err != nil {
				return fmt.Errorf("before the window: %w", err)
			}
			continue
		}
		cs := st.tmpl[req.tmpl]
		if cs == nil {
			cs = &classStats{}
			st.tmpl[req.tmpl] = cs
		}
		if err != nil {
			cs.failed++
			st.fail(&st.queries, err)
			continue
		}
		for _, s := range []*classStats{cs, &st.queries} {
			s.done++
			s.rows += int64(rep.rows)
			s.bytes += int64(rep.bytes)
			s.lat.record(end.Sub(start))
		}
		st.note(clk, req.tmpl, start, end, limit, func(s *sampled) { s.req = req })
	}
}

// openLoop is mixed_ld's ingest connection: frames go out on a fixed
// schedule whether or not earlier ones were acknowledged, and a second
// goroutine reads the acks. Latency runs from the due time.
type openLoop struct {
	c     *client
	next  func() []odh.Point
	every time.Duration
}

type inflight struct {
	due     time.Time
	sent    time.Time
	points  int
	payload []byte
}

func (o *openLoop) run(t0 time.Time, clk clock, limit int, st *connStats) error {
	// Frames sent but not yet acknowledged. Deeper than anything the
	// server queues (32 commands per connection plus socket buffers), so
	// the sender blocks on the socket, never on the harness.
	pending := make(chan inflight, 4096)
	sendErr := make(chan error, 1)
	go func() {
		defer close(pending)
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * o.every)
			if !due.Before(clk.tc) {
				sendErr <- nil
				return
			}
			points := o.next()
			payload, err := server.EncodeBatchFrame(points)
			if err != nil {
				sendErr <- err
				return
			}
			time.Sleep(time.Until(due))
			f := inflight{due: due, sent: time.Now(), points: len(points), payload: payload}
			if err := o.c.sendFrame(payload); err != nil {
				sendErr <- fmt.Errorf("send frame %d: %w", k, err)
				return
			}
			pending <- f
		}
	}()
	var readErr error
	for f := range pending {
		if readErr != nil {
			continue // drain so the sender can finish
		}
		n, err := o.c.readAck()
		end := time.Now()
		if err != nil && err != errBusy {
			readErr = fmt.Errorf("read ack: %w", err)
			o.c.close() // unblocks the sender
			continue
		}
		st.ackedPoints += int64(n)
		if !clk.counted(f.due) {
			continue
		}
		st.late.record(f.sent.Sub(f.due))
		switch {
		case err != nil:
			st.fail(&st.frames, err)
		case n != f.points:
			st.fail(&st.frames, fmt.Errorf("frame of %d points acked as %d", f.points, n))
		default:
			st.frames.done++
			st.frames.rows += int64(n)
			st.frames.lat.record(end.Sub(f.due))
			st.note(clk, "batch", f.due, end, limit, func(s *sampled) { s.payload = f.payload })
		}
	}
	if err := <-sendErr; err != nil {
		return err
	}
	return readErr
}

// tdFrames returns a generator of TD frames for connection i of n: each
// connection owns a disjoint range of accounts and its own seeded stream.
func tdFrames(sc scale, seed int64, i, n int) func() []odh.Point {
	per := sc.IngestAccounts / n
	gen := iotx.NewTDGen(tdConfig(per, sc.IngestHz, seed+int64(i)*7919))
	offset := int64(i * per)
	return func() []odh.Point {
		points := make([]odh.Point, sc.FrameTD)
		for k := range points {
			p, _ := gen.Next()
			p.Source += offset
			points[k] = p
		}
		return points
	}
}

// liveFrames returns the generator of mixed_ld's ingest: its own seeded
// LD stream, addressed to the live fleet's sensors.
func liveFrames(sc scale, seed int64) func() []odh.Point {
	gen := iotx.NewLDGen(ldConfig(sc, seed+7919))
	return func() []odh.Point {
		points := make([]odh.Point, sc.LDFrame)
		for k := range points {
			p, _ := gen.Next()
			p.Source += liveIDOffset(sc)
			points[k] = p
		}
		return points
	}
}

// drive runs one workload's client goroutines against addr from t0 until
// the window closes, and returns their merged measurements.
func drive(cfg runConfig, addr string, dir string, t0 time.Time, clk clock) (*connStats, error) {
	sc := cfg.sc
	limit := 0
	if cfg.trace {
		limit = sc.LadderSample
	}
	var loops []func(st *connStats) error
	switch cfg.workload {
	case "ingest_td":
		for i := 0; i < cfg.conns; i++ {
			next := tdFrames(sc, cfg.seed, i, cfg.conns)
			loops = append(loops, func(st *connStats) error {
				c, err := dial(addr)
				if err != nil {
					return err
				}
				defer c.close()
				return ingestClosedLoop(c, next, clk, (limit+cfg.conns-1)/cfg.conns, st)
			})
		}
	case "query_raw", "query_agg":
		truth, err := loadTDTruth(dir, cfg.seed, sc)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.conns; i++ {
			q := newTDQueries(truth, cfg.seed*31+int64(i))
			loops = append(loops, func(st *connStats) error {
				c, err := dial(addr)
				if err != nil {
					return err
				}
				defer c.close()
				return queryClosedLoop(c, cycles[cfg.workload], q.next, clk, (limit+cfg.conns-1)/cfg.conns, st)
			})
		}
	case "mixed_ld":
		ingest, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer ingest.close()
		ol := &openLoop{c: ingest, next: liveFrames(sc, cfg.seed), every: sc.LDFrameEvery}
		loops = append(loops, func(st *connStats) error { return ol.run(t0, clk, limit, st) })
		if cfg.conns > 1 {
			truth, err := loadLDTruth(cfg.seed, sc)
			if err != nil {
				return nil, err
			}
			q := newLDQueries(truth, cfg.seed*31)
			loops = append(loops, func(st *connStats) error {
				c, err := dial(addr)
				if err != nil {
					return err
				}
				defer c.close()
				return queryClosedLoop(c, cycles["mixed_ld"], q.next, clk, limit, st)
			})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	stats := make([]*connStats, len(loops))
	errs := make([]error, len(loops))
	var wg sync.WaitGroup
	for i, loop := range loops {
		stats[i] = newConnStats()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = loop(stats[i])
		}()
	}
	wg.Wait()
	total := newConnStats()
	for i, st := range stats {
		total.merge(st)
		if errs[i] != nil {
			return total, fmt.Errorf("connection %d: %w", i, errs[i])
		}
	}
	return total, nil
}
