package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"odh/internal/server"
)

// requestTimeout bounds every wire request; a reply later than this is a
// failed request, not a slow one.
const requestTimeout = 20 * time.Second

var errBusy = errors.New("server shed the frame (ERR busy)")

// serverError is an "ERR ..." reply to a SQL command: the connection is
// still in sync and usable.
type serverError string

func (e serverError) Error() string { return "server: " + string(e) }

// client is one protocol-v2 connection. One goroutine sends on it.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	head []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 256<<10)}
	if _, err := fmt.Fprintf(conn, "HELLO %d\n", server.ProtoVersionBinary); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	line, err := c.readLine()
	if err != nil || string(line) != fmt.Sprintf("HELLO %d", server.ProtoVersionBinary) {
		conn.Close()
		return nil, fmt.Errorf("hello: reply %q: %v", line, err)
	}
	return c, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// sendFrame writes one already-encoded BATCH payload in a single write.
func (c *client) sendFrame(payload []byte) error {
	c.head = strconv.AppendInt(append(c.head[:0], "BATCH "...), int64(len(payload)), 10)
	c.head = append(c.head, '\n')
	bufs := net.Buffers{c.head, payload}
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	_, err := bufs.WriteTo(c.conn)
	return err
}

// readAck reads the reply to one BATCH frame and returns the point count
// the server applied.
func (c *client) readAck() (int, error) {
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	if rest, ok := bytes.CutPrefix(line, []byte("OK ")); ok {
		return strconv.Atoi(string(rest))
	}
	if bytes.Equal(line, []byte("ERR busy")) {
		return 0, errBusy
	}
	return 0, fmt.Errorf("batch reply %q", line)
}

// command sends a bare text command that answers with one "OK" line.
func (c *client) command(cmd string) error {
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := fmt.Fprintf(c.conn, "%s\n", cmd); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if string(line) != "OK" {
		return fmt.Errorf("%s: reply %q", cmd, line)
	}
	return nil
}

// reply is what the oracle needs from one SQL result.
type reply struct {
	rows  int   // data rows, excluding the header
	bytes int   // reply bytes on the wire
	sum   int64 // sum of the sumCol-th cell over all rows (COUNT(*) totals)
}

// query sends one SQL line and reads the result through its final
// "OK n". sumCol >= 0 selects an integer column to total.
func (c *client) query(sql string, sumCol int) (reply, error) {
	var rep reply
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	if _, err := c.conn.Write(append(append([]byte("SQL "), sql...), '\n')); err != nil {
		return rep, err
	}
	header := true
	for {
		line, err := c.readLine()
		if err != nil {
			return rep, err
		}
		rep.bytes += len(line) + 1
		if rest, ok := bytes.CutPrefix(line, []byte("OK ")); ok {
			n, err := strconv.Atoi(string(rest))
			if err != nil || n != rep.rows {
				return rep, fmt.Errorf("final %q after %d rows", line, rep.rows)
			}
			return rep, nil
		}
		if bytes.HasPrefix(line, []byte("ERR ")) {
			return rep, serverError(line)
		}
		if header {
			header = false
			continue
		}
		rep.rows++
		if sumCol >= 0 {
			cell := line
			for i := 0; i < sumCol; i++ {
				_, cell, _ = bytes.Cut(cell, []byte("\t"))
			}
			cell, _, _ = bytes.Cut(cell, []byte("\t"))
			v, err := strconv.ParseInt(string(cell), 10, 64)
			if err != nil {
				return rep, fmt.Errorf("column %d of %q: %w", sumCol, line, err)
			}
			rep.sum += v
		}
	}
}
