// Command odh-cli is an interactive SQL shell over a historian directory
// or a running odh-server.
//
//	odh-cli -dir DIR          interactive shell over a local directory
//	odh-cli -connect ADDR     interactive shell over a remote odh-server
//	odh-cli -cluster N        interactive shell over an in-process
//	                          replicated cluster (-replicas, -quorum)
//	odh-cli -dir DIR fsck     offline integrity check; exit 1 when damaged
//	odh-cli -dir DIR upgrade  bring a store unmarked or marked with an
//	                          older ValueBlob format to the current format
//	                          (which Open requires): rewrite its older records,
//	                          re-derive the catalog's per-source statistics,
//	                          verify and mark a copy, then swap it in; with
//	                          -recover, corrupt blobs do not stop the mark
//
// Besides SQL, the local shell accepts dot commands:
//
//	.schema          list schema types and virtual tables
//	.tables          list relational tables
//	.stats [source]  historian-wide counters, or one source's statistics
//	.tier SCHEMA COLD_MS STUB_MS   run a storage-lifecycle pass: batches
//	                 older than COLD_MS compact into max-effort cold
//	                 batches, older than STUB_MS truncate to summary-only
//	                 stubs (0 disables either transition); the reference
//	                 "now" is the schema's newest timestamp
//	.upgrade         re-derive the catalog statistics from the records
//	                 (the repair fsck's "run upgrade" asks for)
//	.flush           checkpoint: drain ingest buffers, commit pages,
//	                 recycle the recovery log
//	.fsck            verify pages, B-trees, and blobs in place
//	.quit
//
// The remote shell maps .stats to the server's STATS command (every
// counter, named as the local .stats names them), .flush to FLUSH, .ping
// to PING, and sends the rest as SQL; a statement the server sheds with
// "ERR busy" is resent up to -retries times with jittered backoff.
//
// The cluster shell adds failover-drill commands: .cluster (topology
// and staleness), .kill/.restart/.stall/.heal for fault injection, and
// .catchup to replay hinted handoff. Degraded SELECTs print their
// surviving rows followed by an explicit PARTIAL RESULT line naming
// the unavailable shards.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"odh"
	"odh/internal/metrics"
	"odh/internal/relational"
	"odh/internal/retry"
)

func main() {
	dir := flag.String("dir", "", "historian directory (empty = in-memory scratch)")
	connect := flag.String("connect", "", "odh-server address; when set, the shell runs remotely over the wire protocol")
	retries := flag.Int("retries", 3, "with -connect: bounded resend attempts when the server sheds load (ERR busy)")
	clusterNodes := flag.Int("cluster", 0, "run an in-process replicated cluster shell with this many nodes")
	clusterReplicas := flag.Int("replicas", 2, "with -cluster: copies per shard")
	clusterQuorum := flag.Int("quorum", 0, "with -cluster: write acks required (0 = majority of replicas)")
	lenient := flag.Bool("recover", false, "lenient recovery: scans skip corrupt blobs instead of failing, and an unreadable statistics entry does not fail the open")
	queryWorkers := flag.Int("query-workers", 0, "parallel degree cap for pushed-down aggregates (0 = serial)")
	blobCache := flag.Int64("blob-cache", 0, "decoded-ValueBlob cache budget in bytes (0 = off)")
	flag.Parse()

	if *connect != "" {
		remoteShell(*connect, *retries)
		return
	}
	if *clusterNodes > 0 {
		clusterShell(*clusterNodes, *clusterReplicas, *clusterQuorum)
		return
	}

	opts := odh.Options{QueryWorkers: *queryWorkers, BlobCacheBytes: *blobCache}
	if *lenient {
		opts.Recovery = odh.RecoverLenient
	}
	if flag.Arg(0) == "upgrade" {
		// Upgrade verifies the store before it marks it: no fsck follows.
		if err := printUpgrade(odh.Upgrade(*dir, opts)); err != nil {
			log.Fatal(err)
		}
		return
	}
	h, err := odh.Open(*dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()

	if flag.Arg(0) == "fsck" {
		rep, err := h.VerifyIntegrity()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rep)
		if !rep.OK() {
			h.Close()
			os.Exit(1)
		}
		return
	}
	fmt.Printf("odh-cli (dir=%q) — enter SQL or .help\n", *dir)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for {
		fmt.Print("odh> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if !dotCommand(h, line) {
				return
			}
			continue
		}
		runSQL(h, line)
	}
}

// printUpgrade prints what an upgrade pass did, or passes its error on.
func printUpgrade(res odh.MaintenanceResult, err error) error {
	if err == nil {
		fmt.Printf("upgraded %d of %d records, bytes %d -> %d; statistics of %d homes re-derived\n", res.Rewritten, res.Records, res.BytesBefore, res.BytesAfter, res.StatsMoved)
	}
	return err
}

// printCounters prints one "<name> <value>" line per counter of st, the
// lines a server's STATS reply sends.
func printCounters(st any) {
	metrics.Walk(st, func(name string, v any) { fmt.Println(name, v) })
}

func dotCommand(h *odh.Historian, line string) bool {
	cmd, arg, _ := strings.Cut(line, " ")
	switch cmd {
	case ".quit", ".exit":
		return false
	case ".help":
		fmt.Println("SQL statements end at the newline. Dot commands: .schema .tables .stats [id] .tier SCHEMA COLD_MS STUB_MS .upgrade .flush .fsck .quit")
	case ".fsck":
		rep, err := h.VerifyIntegrity()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(rep)
	case ".upgrade":
		err := printUpgrade(h.UpgradeBlobs())
		if err == nil {
			err = h.Flush()
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	case ".flush":
		if err := h.Flush(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("flushed")
		}
	case ".stats":
		arg = strings.TrimSpace(arg)
		if arg == "" {
			printCounters(h.TotalStats())
			if tiers, err := h.TierStats(); err != nil {
				fmt.Println("error:", err)
			} else {
				printCounters(tiers)
			}
			for i, ps := range h.PoolPartitionStats() {
				fmt.Printf("  partition %d: hits=%d misses=%d evictions=%d hitRate=%.1f%%\n",
					i, ps.Hits, ps.Misses, ps.Evictions, 100*ps.HitRate())
			}
			break
		}
		id, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			fmt.Println("usage: .stats [source-id]")
			break
		}
		st := h.Stats(id)
		coldLast := "none"
		if st.HasCold {
			coldLast = strconv.FormatInt(st.ColdLastTS, 10)
		}
		fmt.Printf("batches=%d points=%d blobBytes=%d range=[%d, %d] maxSpan=%dms hotSpan=%dms coldLast=%s\n",
			st.BatchCount, st.PointCount, st.BlobBytes, st.FirstTS, st.LastTS, st.MaxSpanMs, st.HotSpanMs, coldLast)
		if st.Unknown {
			fmt.Println("the stored entry was unreadable: scans trust none of this until .upgrade re-derives it")
		}
	case ".tier":
		fields := strings.Fields(arg)
		if len(fields) != 3 {
			fmt.Println("usage: .tier SCHEMA COLD_MS STUB_MS  (0 disables a transition)")
			break
		}
		coldMs, err1 := strconv.ParseInt(fields[1], 10, 64)
		stubMs, err2 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			fmt.Println("usage: .tier SCHEMA COLD_MS STUB_MS  (0 disables a transition)")
			break
		}
		now, ok := h.LatestTS(fields[0])
		if !ok {
			fmt.Printf("schema %q has no data (or does not exist)\n", fields[0])
			break
		}
		res, err := h.TierSchema(fields[0], odh.TierPolicy{ColdAfterMs: coldMs, StubAfterMs: stubMs}, now)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("tiered %s (now=%d): %d records replaced by %d, stubbed=%d bytes %d -> %d (reclaimed %d)\n",
			fields[0], now, res.Deleted, res.Rewritten, res.Stubbed,
			res.BytesBefore, res.BytesAfter, res.BytesBefore-res.BytesAfter)
	case ".schema":
		for _, s := range h.Schemas() {
			tags := make([]string, len(s.Tags))
			for i, tag := range s.Tags {
				tags[i] = tag.Name
			}
			fmt.Printf("schema %s (%s, %s, %s)\n", s.Name, s.IDColumn(), s.TSColumn(), strings.Join(tags, ", "))
		}
		for _, name := range h.VirtualTables() {
			fmt.Printf("virtual table %s\n", name)
		}
	case ".tables":
		for _, name := range h.Tables() {
			fmt.Printf("table %s\n", name)
		}
		for _, name := range h.VirtualTables() {
			fmt.Printf("virtual table %s\n", name)
		}
	default:
		fmt.Println("unknown command; try .help")
	}
	return true
}

func runSQL(h *odh.Historian, sql string) {
	start := time.Now()
	res, err := h.Query(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.PlanText != "" {
		fmt.Print(res.PlanText)
		return
	}
	if res.Columns == nil {
		fmt.Printf("ok (%d rows affected, %v)\n", res.RowsAffected, time.Since(start).Round(time.Microsecond))
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	n := 0
	var out rowPrinter
	for {
		row, ok, err := res.Next()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if !ok {
			break
		}
		n++
		if n <= 40 {
			out.print(row)
		} else if n == 41 {
			fmt.Println("... (display truncated; counting remaining rows)")
		}
	}
	fmt.Printf("(%d rows, %v, %d blob bytes read)\n", n, time.Since(start).Round(time.Microsecond), res.BlobBytes())
}

// rowPrinter prints a result's rows as the shells show them: " | " between cells.
type rowPrinter struct {
	rr   relational.RowRenderer
	line []byte
}

func (p *rowPrinter) print(row []odh.Value) {
	p.line = append(p.rr.AppendRow(p.line[:0], row, " | "), '\n')
	os.Stdout.Write(p.line)
}

// remoteShell speaks the wire protocol to a running odh-server. When
// the server sheds load ("ERR busy"), SQL statements are resent up to
// maxRetries times with jittered exponential backoff instead of being
// dumped on the operator; the retry count shows up in .stats.
func remoteShell(addr string, maxRetries int) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	policy := retry.Policy{MaxAttempts: maxRetries + 1, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var clientRetries int64
	reply := func() (string, bool) {
		line, err := r.ReadString('\n')
		if err != nil {
			fmt.Println("connection lost:", err)
			return "", false
		}
		return strings.TrimRight(line, "\n"), true
	}
	fmt.Printf("odh-cli connected to %s — enter SQL or .help\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for {
		fmt.Print("odh> ")
		if !sc.Scan() {
			fmt.Fprintln(conn, "QUIT")
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == ".quit" || line == ".exit":
			fmt.Fprintln(conn, "QUIT")
			if bye, ok := reply(); ok {
				fmt.Println(bye)
			}
			return
		case line == ".help":
			fmt.Println("SQL runs on the server. Dot commands: .stats .flush .ping .quit")
		case line == ".stats":
			// The server's STATS reply is "<name> <value>" lines then "OK":
			// the serving layer's counters, then the historian's.
			fmt.Fprintln(conn, "STATS")
			for {
				l, ok := reply()
				if !ok {
					return
				}
				if l == "OK" || strings.HasPrefix(l, "ERR") {
					break
				}
				fmt.Println(l)
			}
			fmt.Printf("client_busy_retries %d\n", clientRetries)
		case line == ".flush":
			fmt.Fprintln(conn, "FLUSH")
			if l, ok := reply(); ok {
				fmt.Println(l)
			} else {
				return
			}
		case line == ".ping":
			fmt.Fprintln(conn, "PING")
			if l, ok := reply(); ok {
				fmt.Println(l)
			} else {
				return
			}
		case strings.HasPrefix(line, "."):
			fmt.Println("unknown command; try .help")
		default:
			start := time.Now()
			for attempt := 0; ; attempt++ {
				fmt.Fprintln(conn, "SQL "+line)
				l, ok := reply()
				if !ok {
					return
				}
				// Admission-control shedding is transient by definition:
				// back off (jittered, bounded) and resend rather than
				// surfacing it, up to the -retries budget.
				if strings.HasPrefix(l, "ERR busy") && attempt < maxRetries {
					clientRetries++
					time.Sleep(policy.Delay(attempt, rng))
					continue
				}
				done := false
				for {
					if strings.HasPrefix(l, "ERR") {
						if attempt > 0 && strings.HasPrefix(l, "ERR busy") {
							fmt.Printf("%s (after %d retries)\n", l, attempt)
						} else {
							fmt.Println(l)
						}
						done = true
						break
					}
					if strings.HasPrefix(l, "OK") {
						fmt.Printf("(%s rows, %v)\n", strings.TrimPrefix(l, "OK "), time.Since(start).Round(time.Microsecond))
						done = true
						break
					}
					fmt.Println(l)
					if l, ok = reply(); !ok {
						return
					}
				}
				if done {
					break
				}
			}
		}
	}
}
