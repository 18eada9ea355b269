// Command odh-server exposes a historian over TCP with the protocol
// implemented in internal/server (the paper's Figure 2 data-server
// endpoint):
//
//	HELLO <version>
//	WRITE <source> <ts-ms> <v1> [v2 ...]
//	BATCH <payloadLen> + binary frame (after HELLO 3)
//	SQL <statement>
//	FLUSH / PING / STATS / QUIT
//
// Example:
//
//	odh-server -dir ./data -init "CREATE TABLE sensor_info (id BIGINT, area VARCHAR(8))"
//
// A directory-backed server keeps a recovery log beside its pages: a point
// answered OK is replayed from the log at the next start, a FLUSH answered
// OK has committed everything acked before it to the pages, and the log
// recycles only at such a checkpoint (FLUSH, or the clean shutdown).
//
// SIGINT or SIGTERM drains the server: accepting stops, in-flight
// commands finish, and stragglers are cut off after -drain-timeout.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"odh"
	"odh/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7483", "listen address")
		dir     = flag.String("dir", "", "historian directory (empty = in-memory)")
		initSQL = flag.String("init", "", "semicolon-separated SQL statements run at startup")
		batchSz = flag.Int("batch", 128, "ODH batch size b")
		workers = flag.Int("query-workers", 0, "parallel degree cap for pushed-down aggregates (0 = serial)")

		idleTimeout  = flag.Duration("idle-timeout", 0, "disconnect a client idle for this long (0 = never)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "drop a client that stops reading replies for this long (0 = never)")
		queryTimeout = flag.Duration("query-timeout", 0, "abort SQL commands running longer than this (0 = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", server.DefaultDrainTimeout, "force-close connections this long after shutdown begins")
		maxInflight  = flag.Int64("max-inflight", server.DefaultMaxInflightBytes, "admission budget: BATCH frames queued across all connections, each charged the larger of its payload and its decoded size")
	)
	flag.Parse()

	h, err := odh.Open(*dir, odh.Options{BatchSize: *batchSz, QueryWorkers: *workers, EnableRecoveryLog: true})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()

	for _, stmt := range strings.Split(*initSQL, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		if _, err := h.Query(stmt); err != nil {
			log.Fatalf("init %q: %v", stmt, err)
		}
	}

	srv := server.NewWith(h, server.Options{
		IdleTimeout:      *idleTimeout,
		WriteTimeout:     *writeTimeout,
		QueryTimeout:     *queryTimeout,
		DrainTimeout:     *drainTimeout,
		MaxInflightBytes: *maxInflight,
		OnError:          func(err error) { log.Printf("conn: %v", err) },
	})
	// Handlers go in before the address is announced: a signal sent by
	// whoever read it must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("odh-server listening on %s (dir=%q)", bound, *dir)
	<-sig
	log.Printf("shutting down (drain timeout %v)", *drainTimeout)
	srv.Close()
	st := srv.Stats()
	log.Printf("served %d conns, %d points, %d frames; shed %d; forced %d closes",
		st.ConnsAccepted, st.PointsIngested, st.FramesIngested, st.BatchesShed, st.ForcedCloses)
}
