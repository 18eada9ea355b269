package odh_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"

	"odh"
	"odh/internal/fault"
	"odh/internal/pagestore"
	"odh/internal/server"
)

// TestEveryFlushIsTheCheckpoint: whichever way a client asks for a durable
// point — Writer.Flush, a wire FLUSH, Historian.Flush — every point acked
// before it is in committed pages when it answers, and the recovery log
// was recycled only after that commit. The historian is then dropped
// without Close (its pool and buffers are lost; the files keep what
// reached them) and reopened over the same bytes: exactly the acked points
// come back and fsck is clean. Before the store owned the order,
// Writer.Flush and the wire FLUSH drained the buffers into dirty pages and
// truncated the log without a commit: 0 of N recovered.
func TestEveryFlushIsTheCheckpoint(t *testing.T) {
	const n = 100 // below the batch size: every point is still buffered at the flush
	flushes := map[string]func(t *testing.T, h *odh.Historian){
		"Writer.Flush": func(t *testing.T, h *odh.Historian) {
			if err := h.Writer().Flush(); err != nil {
				t.Fatal(err)
			}
		},
		"Historian.Flush": func(t *testing.T, h *odh.Historian) {
			if err := h.Flush(); err != nil {
				t.Fatal(err)
			}
		},
		"wire FLUSH": func(t *testing.T, h *odh.Historian) {
			client, serverEnd := net.Pipe()
			done := make(chan struct{})
			go func() {
				server.NewWith(h, server.Options{}).ServeConn(serverEnd)
				close(done)
			}()
			if _, err := fmt.Fprintln(client, "FLUSH"); err != nil {
				t.Fatal(err)
			}
			if reply, err := bufio.NewReader(client).ReadString('\n'); err != nil || reply != "OK\n" {
				t.Fatalf("FLUSH answered %q, %v; want OK", reply, err)
			}
			client.Close()
			<-done
		},
	}
	for name, flush := range flushes {
		t.Run(name, func(t *testing.T) {
			pages := fault.Wrap(pagestore.NewMemFile())
			wal := fault.Wrap(pagestore.NewMemFile())
			opts := odh.Options{BatchSize: 128}
			opts.Backing, opts.WALBacking = pages, wal
			h, err := odh.Open("", opts)
			if err != nil {
				t.Fatal(err)
			}
			schema, err := h.CreateSchema(odh.SchemaType{Name: "environ", Tags: []odh.TagDef{{Name: "temperature"}}})
			if err != nil {
				t.Fatal(err)
			}
			if err := h.CreateVirtualTable("environ_v", "environ"); err != nil {
				t.Fatal(err)
			}
			src, err := h.RegisterSource(odh.DataSource{SchemaID: schema.ID, Regular: true, IntervalMs: 10})
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Flush(); err != nil { // the metadata is durable, no point is
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := h.Writer().WritePoint(src.ID, int64(i*10), float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			flush(t, h)
			if size, _ := wal.Size(); size != 0 {
				t.Fatalf("recovery log holds %d bytes after the flush, want it recycled", size)
			}
			// Crash: h is abandoned without Close.

			opts.Backing, opts.WALBacking = pages.Inner(), wal.Inner()
			h2, err := odh.Open("", opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer h2.Close()
			res, err := h2.Query("SELECT COUNT(*) FROM environ_v")
			if err != nil {
				t.Fatal(err)
			}
			rows, err := res.FetchAll()
			if err != nil {
				t.Fatal(err)
			}
			if got := rows[0][0].AsInt(); got != n {
				t.Fatalf("recovered %d of %d acked points", got, n)
			}
			if rep, err := h2.VerifyIntegrity(); err != nil || !rep.OK() {
				t.Fatalf("fsck after recovery: %v\n%s", err, rep)
			}
		})
	}
}
