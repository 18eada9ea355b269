package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"odh"
)

func TestBatchFrameRoundtrip(t *testing.T) {
	points := []odh.Point{
		{Source: 1, TS: 1000, Values: []float64{21.5, 3.25}},
		{Source: 7, TS: 2000, Values: []float64{odh.NullValue}},
		{Source: -3, TS: -5, Values: nil},
	}
	payload, err := EncodeBatchFrame(points)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(points) {
		t.Fatalf("decoded %d points, want %d", len(got), len(points))
	}
	for i := range points {
		if got[i].Source != points[i].Source || got[i].TS != points[i].TS {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], points[i])
		}
		for j := range points[i].Values {
			w, g := points[i].Values[j], got[i].Values[j]
			if odh.IsNull(w) != odh.IsNull(g) || (!odh.IsNull(w) && w != g) {
				t.Fatalf("point %d value %d = %v, want %v", i, j, g, w)
			}
		}
	}
}

func TestBatchFrameRejectsCorruption(t *testing.T) {
	payload, err := EncodeBatchFrame([]odh.Point{{Source: 1, TS: 1, Values: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(p []byte) []byte
		want   string
	}{
		{"flipped bit", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			q[len(q)-1] ^= 0x40
			return q
		}, "crc mismatch"},
		{"truncated payload", func(p []byte) []byte { return p[:len(p)-4] }, "crc mismatch"},
		{"short header", func(p []byte) []byte { return p[:6] }, "shorter than"},
		{"trailing garbage", func(p []byte) []byte {
			q := append(append([]byte(nil), p...), 0xAB, 0xCD)
			binary.LittleEndian.PutUint32(q[0:4], crc32.Checksum(q[4:], castagnoli))
			return q
		}, "trailing bytes"},
		{"count past end", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			binary.LittleEndian.PutUint32(q[4:8], 99)
			binary.LittleEndian.PutUint32(q[0:4], crc32.Checksum(q[4:], castagnoli))
			return q
		}, "cannot fit"},
		{"count truncated mid-values", func(p []byte) []byte {
			// Two declared points where the payload holds one wide point:
			// the count passes the fit bound but the decode runs out.
			q := mustEncode(t, []odh.Point{{Source: 1, TS: 1, Values: []float64{1, 2, 3}}})
			binary.LittleEndian.PutUint32(q[4:8], 2)
			binary.LittleEndian.PutUint32(q[0:4], crc32.Checksum(q[4:], castagnoli))
			return q
		}, "truncated at point"},
	}
	for _, tc := range cases {
		if _, err := DecodeBatchFrame(tc.mutate(payload)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestBatchFrameHugeCountRejected: a valid-CRC 8-byte frame declaring
// 2^32-1 points must fail the fit check before any allocation is sized
// from the attacker-controlled count (a ~170 GB make() would OOM the
// server).
func TestBatchFrameHugeCountRejected(t *testing.T) {
	frame := make([]byte, batchHeaderBytes)
	binary.LittleEndian.PutUint32(frame[4:8], math.MaxUint32)
	binary.LittleEndian.PutUint32(frame[0:4], crc32.Checksum(frame[4:], castagnoli))
	if _, err := DecodeBatchFrame(frame); err == nil || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("err = %v, want cannot-fit rejection", err)
	}
}

// TestBatchAbsurdLengthClosesConn: a declared payload length no
// protocol-legal frame could have is a fatal protocol error; the server
// must close the session rather than block discarding exabytes to keep
// the stream in sync.
func TestBatchAbsurdLengthClosesConn(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "HELLO 2")
	if got := c.read(t); got != "HELLO 2" {
		t.Fatalf("HELLO -> %q", got)
	}
	c.send(t, "BATCH 9223372036854775807")
	if got := c.read(t); !strings.HasPrefix(got, "ERR connection:") {
		t.Fatalf("absurd BATCH length -> %q, want ERR connection", got)
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after absurd BATCH length")
	}
}

func TestBatchFrameRejectsNonFinite(t *testing.T) {
	if _, err := EncodeBatchFrame([]odh.Point{{Source: 1, TS: 1, Values: []float64{math.Inf(1)}}}); err == nil {
		t.Fatal("encode accepted +Inf")
	}
	// A hostile client can still put Inf on the wire; decode must catch it.
	payload, err := EncodeBatchFrame([]odh.Point{{Source: 1, TS: 1, Values: []float64{1.0}}})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(payload[batchHeaderBytes+pointHeaderBytes:], math.Float64bits(math.Inf(-1)))
	binary.LittleEndian.PutUint32(payload[0:4], crc32.Checksum(payload[4:], castagnoli))
	if _, err := DecodeBatchFrame(payload); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("decode of Inf payload: err = %v, want non-finite rejection", err)
	}
	// NaN is the NULL encoding and must survive.
	pts, err := DecodeBatchFrame(mustEncode(t, []odh.Point{{Source: 1, TS: 1, Values: []float64{odh.NullValue}}}))
	if err != nil {
		t.Fatal(err)
	}
	if !odh.IsNull(pts[0].Values[0]) {
		t.Fatal("NaN did not decode as NULL")
	}
}

func mustEncode(t *testing.T, points []odh.Point) []byte {
	t.Helper()
	p, err := EncodeBatchFrame(points)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWriteBatchFrameWire(t *testing.T) {
	var buf bytes.Buffer
	points := []odh.Point{{Source: 4, TS: 9, Values: []float64{1, 2}}}
	if err := WriteBatchFrame(&buf, points); err != nil {
		t.Fatal(err)
	}
	line, err := buf.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "BATCH ") {
		t.Fatalf("line = %q", line)
	}
	got, err := DecodeBatchFrame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, points) {
		t.Fatalf("roundtrip = %+v, want %+v", got, points)
	}
}

func TestHelloNegotiation(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	cases := []struct{ send, want string }{
		{"HELLO 1", "HELLO 1"},
		{"HELLO 2", "HELLO 2"},
		{"HELLO 9", "HELLO 2"}, // server caps at its max
	}
	for _, tc := range cases {
		c.send(t, tc.send)
		if got := c.read(t); got != tc.want {
			t.Fatalf("%q -> %q, want %q", tc.send, got, tc.want)
		}
	}
	c.send(t, "HELLO x")
	if got := c.read(t); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("HELLO x -> %q, want ERR", got)
	}
}

func TestBatchRequiresHello(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	// BATCH before HELLO 2: the payload must be consumed so the stream
	// stays in sync, and the reply must say what is missing.
	junk := make([]byte, 34)
	if _, err := c.conn.Write(append([]byte("BATCH 34\n"), junk...)); err != nil {
		t.Fatal(err)
	}
	if got := c.read(t); !strings.Contains(got, "HELLO 2") {
		t.Fatalf("BATCH without HELLO -> %q", got)
	}
	c.send(t, "PING")
	if got := c.read(t); got != "PONG" {
		t.Fatalf("stream desynchronized after rejected frame: %q", got)
	}
}

func TestBatchIngestOverWire(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "HELLO 2")
	if got := c.read(t); got != "HELLO 2" {
		t.Fatalf("HELLO -> %q", got)
	}
	var points []odh.Point
	for i := 0; i < 20; i++ {
		points = append(points, odh.Point{Source: 1, TS: int64(1000 + i*1000), Values: []float64{20 + float64(i), 1.5}})
	}
	if err := WriteBatchFrame(c.conn, points); err != nil {
		t.Fatal(err)
	}
	if got := c.read(t); got != "OK 20" {
		t.Fatalf("BATCH -> %q", got)
	}
	c.send(t, "FLUSH")
	if got := c.read(t); got != "OK" {
		t.Fatalf("FLUSH -> %q", got)
	}
	c.send(t, "SQL SELECT COUNT(*), MAX(temperature) FROM environ_data_v WHERE id = 1")
	c.read(t) // header
	if row := c.read(t); !strings.HasPrefix(row, "20\t39") {
		t.Fatalf("row = %q", row)
	}
	c.read(t) // trailer
}

func TestPipelinedCommandsOneSegment(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	// Several commands in one TCP segment, including two back-to-back
	// binary frames; replies must come back one per command, in order.
	var seg bytes.Buffer
	seg.WriteString("HELLO 2\nPING\n")
	mustWriteFrame(t, &seg, []odh.Point{{Source: 1, TS: 1000, Values: []float64{1, 2}}})
	mustWriteFrame(t, &seg, []odh.Point{{Source: 1, TS: 2000, Values: []float64{3, 4}}})
	seg.WriteString("FLUSH\nQUIT\n")
	if _, err := c.conn.Write(seg.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"HELLO 2", "PONG", "OK 1", "OK 1", "OK", "BYE"} {
		if got := c.read(t); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after pipelined QUIT")
	}
}

func mustWriteFrame(t *testing.T, w *bytes.Buffer, points []odh.Point) {
	t.Helper()
	if err := WriteBatchFrame(w, points); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRejectsNonFinite(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	cases := []struct {
		line string
		ok   bool
	}{
		{"WRITE 1 1000 nan", false},
		{"WRITE 1 1000 NaN 2.0", false},
		{"WRITE 1 1000 inf", false},
		{"WRITE 1 1000 -inf", false},
		{"WRITE 1 1000 +Infinity", false},
		{"WRITE 1 1000 2 Infinity", false},
		{"WRITE 1 1000 null 2.0", true}, // NULL has its own spelling
		{"WRITE 1 2000 21.5 3.5", true},
	}
	for _, tc := range cases {
		c.send(t, tc.line)
		got := c.read(t)
		if tc.ok && got != "OK" {
			t.Errorf("%q -> %q, want OK", tc.line, got)
		}
		if !tc.ok && !strings.HasPrefix(got, "ERR") {
			t.Errorf("%q -> %q, want ERR", tc.line, got)
		}
	}
}

func TestStatsCommand(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "PING")
	c.read(t)
	c.send(t, "STATS")
	seen := map[string]bool{}
	for {
		line := c.read(t)
		if line == "OK" {
			break
		}
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed stats line %q", line)
		}
		seen[name] = true
	}
	for _, want := range []string{"conns_accepted", "conns_active", "points_ingested", "queued_bytes", "queries_timed_out", "forced_closes"} {
		if !seen[want] {
			t.Errorf("STATS missing %q (got %v)", want, seen)
		}
	}
}

// TestDecodeBatchFrameAllocsFlat: a decoded frame costs the point slice
// and one slab of values, whatever its point count — not an allocation
// per point.
func TestDecodeBatchFrameAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		points := make([]odh.Point, n)
		for i := range points {
			points[i] = odh.Point{Source: int64(i), TS: int64(i), Values: []float64{1, 2, 3, 4}}
		}
		payload := mustEncode(t, points)
		return testing.AllocsPerRun(20, func() {
			if got, err := DecodeBatchFrame(payload); err != nil || len(got) != n || got[n-1].Values[3] != 4 {
				t.Fatalf("decoded %d points, %v", len(got), err)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); large > small || large > 2 {
		t.Fatalf("a 1000-point frame decodes in %.0f allocations, a 10-point frame in %.0f: want 2 for both", large, small)
	}
}
