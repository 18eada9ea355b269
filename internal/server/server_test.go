package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"odh"
)

// startServer spins up a historian with the quickstart schema and a
// server on an ephemeral port.
func startServer(t *testing.T) (addr string) {
	t.Helper()
	h, err := odh.Open("", odh.Options{BatchSize: 8})
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
	if _, err := h.RegisterSource(odh.DataSource{ID: 1, SchemaID: schema.ID, Regular: true, IntervalMs: 1000}); err != nil {
		t.Fatal(err)
	}
	srv := NewWith(h, Options{})
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	return a.String()
}

// client is a line-oriented test client.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) send(t *testing.T, line string) {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
}

func (c *client) read(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\n")
}

func TestPingWriteFlushQuery(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)

	c.send(t, "PING")
	if got := c.read(t); got != "PONG" {
		t.Fatalf("PING -> %q", got)
	}

	for i := 0; i < 10; i++ {
		c.send(t, fmt.Sprintf("WRITE 1 %d %g %g", 1000+i*1000, 20.0+float64(i), 3.5))
		if got := c.read(t); got != "OK" {
			t.Fatalf("WRITE -> %q", got)
		}
	}
	c.send(t, "FLUSH")
	if got := c.read(t); got != "OK" {
		t.Fatalf("FLUSH -> %q", got)
	}

	c.send(t, "SQL SELECT COUNT(*), MAX(temperature) FROM environ_data_v WHERE id = 1")
	header := c.read(t)
	if !strings.Contains(header, "COUNT") {
		t.Fatalf("header = %q", header)
	}
	row := c.read(t)
	if !strings.HasPrefix(row, "10\t29") {
		t.Fatalf("row = %q", row)
	}
	if got := c.read(t); got != "OK 1" {
		t.Fatalf("trailer = %q", got)
	}
}

func TestWriteNullValues(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "WRITE 1 5000 null 7.5")
	if got := c.read(t); got != "OK" {
		t.Fatalf("WRITE null -> %q", got)
	}
	c.send(t, "FLUSH")
	c.read(t)
	c.send(t, "SQL SELECT temperature, wind FROM environ_data_v WHERE id = 1")
	c.read(t) // header
	row := c.read(t)
	if row != "NULL\t7.5" {
		t.Fatalf("row = %q", row)
	}
}

func TestProtocolErrors(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	cases := []string{
		"WRITE",                  // missing args
		"WRITE x 1 2",            // bad source
		"WRITE 1 y 2",            // bad ts
		"WRITE 1 1 z",            // bad value
		"WRITE 999 1 2 3",        // unknown source
		"SQL SELECT * FROM nope", // bad table
		"BOGUS",                  // unknown command
	}
	for _, line := range cases {
		c.send(t, line)
		if got := c.read(t); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", line, got)
		}
	}
	// The connection survives errors.
	c.send(t, "PING")
	if got := c.read(t); got != "PONG" {
		t.Fatalf("PING after errors -> %q", got)
	}
}

func TestQuit(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "QUIT")
	if got := c.read(t); got != "BYE" {
		t.Fatalf("QUIT -> %q", got)
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after QUIT")
	}
}

func TestExplainOverWire(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "SQL EXPLAIN SELECT * FROM environ_data_v WHERE id = 1")
	sawPlan := false
	for {
		line := c.read(t)
		if strings.HasPrefix(line, "OK") {
			break
		}
		if strings.Contains(line, "VirtualHistoricalScan") {
			sawPlan = true
		}
	}
	if !sawPlan {
		t.Fatal("no plan lines returned")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startServer(t)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < 50; i++ {
				ts := 100_000*g + i*1000
				fmt.Fprintf(conn, "WRITE 1 %d 1 2\n", ts)
				if line, err := r.ReadString('\n'); err != nil || strings.TrimSpace(line) != "OK" {
					done <- fmt.Errorf("client %d: %q %v", g, line, err)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
