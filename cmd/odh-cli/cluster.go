package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"odh/internal/cluster"
)

// clusterShell runs the interactive shell against an in-process
// replicated cluster — the operator's sandbox for failover drills: kill
// a node, watch queries degrade explicitly, restart it, replay its
// hints, verify the replicas converged.
func clusterShell(nodes, replicas, quorum int) {
	c, err := cluster.NewReplicated(cluster.Options{
		Nodes:       nodes,
		Replicas:    replicas,
		WriteQuorum: quorum,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	fmt.Printf("odh-cli cluster (%d nodes, %d replicas, quorum %d) — enter SQL or .help\n",
		c.Nodes(), c.Replicas(), c.Quorum())
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for {
		fmt.Print("odh> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if !clusterDot(c, line) {
				return
			}
			continue
		}
		runClusterSQL(c, line)
	}
}

func clusterDot(c *cluster.Cluster, line string) bool {
	cmd, arg, _ := strings.Cut(line, " ")
	arg = strings.TrimSpace(arg)
	nodeArg := func() (int, bool) {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 || n >= c.Nodes() {
			fmt.Printf("usage: %s <node 0..%d>\n", cmd, c.Nodes()-1)
			return 0, false
		}
		return n, true
	}
	switch cmd {
	case ".quit", ".exit":
		return false
	case ".help":
		fmt.Println("SQL statements end at the newline (SELECT scatters with failover; DDL/INSERT replicate).")
		fmt.Println("Dot commands: .cluster  .stats  .flush  .fsck  .quit")
		fmt.Println("Chaos:        .kill N  .restart N  .stall N <dur>  .heal N  .catchup [N]")
	case ".cluster":
		for _, ns := range c.Status() {
			state := "up"
			if ns.Down {
				state = "DOWN"
			} else if ns.Stalled {
				state = "stalled"
			}
			fmt.Printf("node %d: %s\n", ns.Node, state)
			for _, cp := range ns.Copies {
				extra := ""
				if cp.PendingHints > 0 {
					extra = fmt.Sprintf(" hints=%d", cp.PendingHints)
				}
				if cp.CatchingUp {
					extra += " catching-up"
				}
				up := "up"
				if !cp.Up {
					up = "down"
				}
				fmt.Printf("  shard %d replica %d: %s%s\n", cp.Shard, cp.Replica, up, extra)
			}
		}
	case ".stats":
		printCounters(c.Stats())
		printCounters(c.TotalStats())
	case ".flush":
		if err := c.Flush(); err != nil {
			fmt.Println("degraded flush:", err)
		} else {
			fmt.Println("flushed")
		}
	case ".fsck":
		rep, err := c.Verify()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(rep)
	case ".kill":
		if n, ok := nodeArg(); ok {
			report(c.KillNode(n), fmt.Sprintf("node %d killed", n))
		}
	case ".restart":
		if n, ok := nodeArg(); ok {
			report(c.RestartNode(n), fmt.Sprintf("node %d restarted (run .catchup %d to replay hints)", n, n))
		}
	case ".stall":
		nStr, durStr, _ := strings.Cut(arg, " ")
		n, err1 := strconv.Atoi(nStr)
		d, err2 := time.ParseDuration(strings.TrimSpace(durStr))
		if err1 != nil || err2 != nil || n < 0 || n >= c.Nodes() {
			fmt.Println("usage: .stall <node> <duration>  (e.g. .stall 1 50ms)")
			break
		}
		report(c.StallNode(n, d), fmt.Sprintf("node %d stalled by %v per op", n, d))
	case ".heal":
		if n, ok := nodeArg(); ok {
			report(c.HealNode(n), fmt.Sprintf("node %d healed", n))
		}
	case ".catchup":
		if arg == "" {
			for i := 0; i < c.Nodes(); i++ {
				report(c.CatchUp(i), fmt.Sprintf("node %d caught up", i))
			}
			break
		}
		if n, ok := nodeArg(); ok {
			report(c.CatchUp(n), fmt.Sprintf("node %d caught up", n))
		}
	default:
		fmt.Println("unknown command; try .help")
	}
	return true
}

func report(err error, okMsg string) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(okMsg)
}

func runClusterSQL(c *cluster.Cluster, sql string) {
	start := time.Now()
	upper := strings.ToUpper(strings.TrimSpace(sql))
	if !strings.HasPrefix(upper, "SELECT") && !strings.HasPrefix(upper, "EXPLAIN") {
		if err := c.ExecAll(sql); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("ok (replicated, %v)\n", time.Since(start).Round(time.Microsecond))
		return
	}
	res, err := c.Query(sql)
	if err != nil && (res == nil || len(res.Unavailable) == 0) {
		fmt.Println("error:", err)
		return
	}
	// A partial result is degraded but explicit: print what survived, then
	// name the gap.
	fmt.Println(strings.Join(res.Columns, " | "))
	var line []byte
	for n, row := range res.Rows {
		if n == 40 {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-n)
			break
		}
		line = printRow(line, row)
	}
	fmt.Printf("(%d rows, %v, %d blob bytes read)\n", len(res.Rows), time.Since(start).Round(time.Microsecond), res.BlobBytes)
	if err != nil {
		fmt.Printf("PARTIAL RESULT: shards %v unavailable — %v\n", res.Unavailable, err)
	}
}
