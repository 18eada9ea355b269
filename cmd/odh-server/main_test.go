package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"odh"
	"odh/internal/server"
)

// TestKillDashNine kills a real odh-server process with SIGKILL and
// restarts it on the same directory: every point a BATCH frame was answered
// OK for must come back, its value exactly (COUNT and SUM agree) — from committed pages when a FLUSH was answered
// OK before the kill, from the recovery log when none was sent — and the
// store must fsck clean. The load stays far below the buffer pool, so no
// page is evicted in place between checkpoints (DESIGN "Durability &
// failure model" documents that separate exposure).
func TestKillDashNine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server process")
	}
	bin := filepath.Join(t.TempDir(), "odh-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, sendFlush := range []bool{true, false} {
		t.Run(fmt.Sprintf("flush=%v", sendFlush), func(t *testing.T) {
			const sources, frames, perFrame = 16, 40, 250 // 10,000 points, ~625 per source: some batches fill, the rest stay buffered
			dir := t.TempDir()
			ids := seedStore(t, dir, sources)

			srv := startServer(t, bin, dir)
			conn, r := dial(t, srv.addr)
			send(t, conn, r, "HELLO 3", "HELLO 3")
			acked := 0
			for f := 0; f < frames; f++ {
				pts := make([]odh.Point, perFrame)
				for i := range pts {
					k := f*perFrame + i
					pts[i] = odh.Point{Source: ids[k%sources], TS: int64(k/sources) * 10, Values: []float64{float64(k), 1}}
				}
				if err := server.WriteBatchFrame(conn, pts); err != nil {
					t.Fatal(err)
				}
				if reply := readLine(t, r); reply != fmt.Sprintf("OK %d", perFrame) {
					t.Fatalf("frame %d answered %q", f, reply)
				}
				acked += perFrame
			}
			if sendFlush {
				send(t, conn, r, "FLUSH", "OK")
			}
			if err := srv.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no Close
				t.Fatal(err)
			}
			srv.cmd.Wait()
			conn.Close()

			srv = startServer(t, bin, dir)
			conn, r = dial(t, srv.addr)
			send(t, conn, r, "SQL SELECT COUNT(*), SUM(temperature) FROM environ_v", "COUNT(*)\tSUM(temperature)")
			count, sum, _ := strings.Cut(readLine(t, r), "\t")
			if got, err := strconv.ParseFloat(sum, 64); count != fmt.Sprint(acked) || err != nil || got != float64(acked*(acked-1)/2) {
				t.Fatalf("restarted server counts %s points summing to %s, %d were acked summing to %d", count, sum, acked, acked*(acked-1)/2)
			}
			conn.Close()
			// A clean shutdown this time, then fsck the directory in process.
			if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if err := srv.cmd.Wait(); err != nil {
				t.Fatalf("server exit after SIGTERM: %v", err)
			}
			if fi, err := os.Stat(filepath.Join(dir, "ingest.wal")); err != nil || fi.Size() != 0 {
				t.Fatalf("recovery log after the clean shutdown: %v, %v; want it recycled by the closing checkpoint", fi, err)
			}
			h, err := odh.Open(dir, odh.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if rep, err := h.VerifyIntegrity(); err != nil || !rep.OK() {
				t.Fatalf("fsck after kill -9 and restart: %v\n%s", err, rep)
			}
		})
	}
}

// seedStore registers a schema, its virtual table and n regular sources in
// dir through the library — operational sources cannot be registered over
// the wire — and closes the historian, which commits them.
func seedStore(t *testing.T, dir string, n int) []int64 {
	t.Helper()
	h, err := odh.Open(dir, odh.Options{EnableRecoveryLog: true})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := h.CreateSchema(odh.SchemaType{Name: "environ", Tags: []odh.TagDef{{Name: "temperature"}, {Name: "wind"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CreateVirtualTable("environ_v", "environ"); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, n)
	for i := range ids {
		ds, err := h.RegisterSource(odh.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = ds.ID
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

type serverProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServer launches the binary on dir with an ephemeral port and waits
// for its "listening on" line. The process is killed at test end if the
// test has not already reaped it.
func startServer(t *testing.T, bin, dir string) *serverProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				lines <- strings.Fields(rest)[0]
			}
		}
		close(lines)
	}()
	select {
	case addr, ok := <-lines:
		if !ok {
			t.Fatal("server exited before listening")
		}
		return &serverProc{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		t.Fatal("server never logged its listen address")
	}
	return nil
}

func dial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	return conn, bufio.NewReader(conn)
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading reply: %v (got %q)", err, line)
	}
	return strings.TrimRight(line, "\n")
}

// send writes one text command and expects want as the next reply line.
func send(t *testing.T, conn net.Conn, r *bufio.Reader, cmd, want string) {
	t.Helper()
	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != want {
		t.Fatalf("%s answered %q, want %q", cmd, got, want)
	}
}
