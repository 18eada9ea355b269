package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"odh"
	"odh/internal/pagestore"
	"odh/internal/tsstore"
	"odh/internal/walog"
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
	if empty, err := DecodeBatchFrame(mustEncode(t, nil)); err != nil || len(empty) != 0 {
		t.Fatalf("an empty frame decodes to %d points, %v", len(empty), err)
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
	payload := mustEncode(t, []odh.Point{{Source: 1, TS: 1, Values: []float64{1, 2, 3}}, {Source: 2, TS: 5, Values: []float64{4, 5, 6}}})
	// Behind the CRC: the header {2 points; ids, times and runs 2 bytes
	// each; no presence column}, then ids, times, the one run (2 points of
	// 3 values) and 48 bytes of values.
	body := payload[crcBytes:]
	if want := []byte{2, 2, 2, 2, 0, 2, 4, 2, 8, 2, 3}; !bytes.Equal(body[:len(want)], want) {
		t.Fatalf("frame starts %v, want %v", body[:len(want)], want)
	}
	edit := func(f func(b []byte) []byte) func([]byte) []byte {
		return func(p []byte) []byte { return reseal(f(append([]byte(nil), p[crcBytes:]...))) }
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
		{"short payload", func(p []byte) []byte { return p[:3] }, "a 3-byte payload"},
		{"truncated behind a valid crc", edit(func(b []byte) []byte { return b[:len(b)-8] }), "corrupt frame"},
		{"trailing bytes", edit(func(b []byte) []byte { return append(b, 0xAB, 0xCD) }), "corrupt frame"},
		{"huge declared count", edit(func(b []byte) []byte {
			return append(binary.AppendUvarint(nil, math.MaxInt64), b[1:]...)
		}), "corrupt frame"},
		{"run declaring values past the end", edit(func(b []byte) []byte {
			b[10] = 100 // 2 points of 100 values, where 48 bytes hold 6
			return b
		}), "corrupt frame"},
	}
	for _, tc := range cases {
		bad := tc.mutate(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatchFrame(bad)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tsstore.ErrCorruptFrame) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame saying %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes", tc.name, len(bad), grew)
		}
	}
}

// reseal puts a valid CRC in front of a frame.
func reseal(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(body, castagnoli)), body...)
}

// TestBatchFrameHugeCountRejected: a valid-CRC frame declaring 2^63 - 1
// points, each of the 2^20 values a run may declare, must be refused
// before anything is sized by the counts — before admission is even asked
// — and over the wire with the stream in sync.
func TestBatchFrameHugeCountRejected(t *testing.T) {
	runs := binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxInt64), 1<<20)
	body := binary.AppendUvarint(nil, math.MaxInt64)
	body = append(body, 1, 1, byte(len(runs)), 0) // the lengths of ids, times and runs; no presence
	body = append(append(body, 2, 2), runs...)    // one id, one time, the run
	frame := reseal(body)
	admitted := false
	if _, err := tsstore.DecodeFrame(frame[crcBytes:], func(int64) error { admitted = true; return nil }); !errors.Is(err, tsstore.ErrCorruptFrame) || admitted {
		t.Fatalf("err = %v, admission asked: %v; want ErrCorruptFrame before admission", err, admitted)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBatchFrame(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, tsstore.ErrCorruptFrame) {
		t.Fatalf("err = %v, want ErrCorruptFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(frame), grew)
	}
	c := dial(t, startServer(t))
	c.send(t, "HELLO 3")
	if got := c.read(t); got != "HELLO 3" {
		t.Fatalf("HELLO -> %q", got)
	}
	if _, err := c.conn.Write(append([]byte(fmt.Sprintf("BATCH %d\n", len(frame))), frame...)); err != nil {
		t.Fatal(err)
	}
	if got := c.read(t); !strings.HasPrefix(got, "ERR ") || !strings.Contains(got, "corrupt frame") {
		t.Fatalf("huge-count frame -> %q, want a corrupt-frame ERR", got)
	}
	c.send(t, "PING")
	if got := c.read(t); got != "PONG" {
		t.Fatalf("stream desynchronized after the refused frame: %q", got)
	}
}

// TestBatchAbsurdLengthClosesConn: a declared payload length no
// protocol-legal frame could have is a fatal protocol error; the server
// must close the session rather than block discarding exabytes to keep
// the stream in sync.
func TestBatchAbsurdLengthClosesConn(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "HELLO 3")
	if got := c.read(t); got != "HELLO 3" {
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
	body, finite := tsstore.AppendFrame(nil, []odh.Point{{Source: 1, TS: 1, Values: []float64{2, math.Inf(-1)}}})
	if finite {
		t.Fatal("the encoder calls a frame holding -Inf finite")
	}
	if _, err := DecodeBatchFrame(reseal(body)); err == nil || !strings.Contains(err.Error(), "non-finite") {
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
		{"HELLO 2", "HELLO 2"}, // the retired row-major BATCH: text only
		{"HELLO 3", "HELLO 3"},
		{"HELLO 9", "HELLO 3"}, // server caps at its max
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
	// BATCH before HELLO 3 — without HELLO, or after HELLO 2, the retired
	// row-major frame's version: the payload must be consumed so the
	// stream stays in sync, and the reply must say what is missing.
	for _, hello := range []string{"", "HELLO 2"} {
		c := dial(t, addr)
		if hello != "" {
			c.send(t, hello)
			if got := c.read(t); got != hello {
				t.Fatalf("%s -> %q", hello, got)
			}
		}
		frame := mustEncode(t, []odh.Point{{Source: 1, TS: 1000, Values: []float64{1, 2}}})
		if _, err := c.conn.Write(append([]byte(fmt.Sprintf("BATCH %d\n", len(frame))), frame...)); err != nil {
			t.Fatal(err)
		}
		if got := c.read(t); got != "ERR BATCH requires HELLO 3" {
			t.Fatalf("BATCH after %q -> %q", hello, got)
		}
		c.send(t, "PING")
		if got := c.read(t); got != "PONG" {
			t.Fatalf("stream desynchronized after rejected frame: %q", got)
		}
	}
}

func TestBatchIngestOverWire(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.send(t, "HELLO 3")
	if got := c.read(t); got != "HELLO 3" {
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
	seg.WriteString("HELLO 3\nPING\n")
	mustWriteFrame(t, &seg, []odh.Point{{Source: 1, TS: 1000, Values: []float64{1, 2}}})
	mustWriteFrame(t, &seg, []odh.Point{{Source: 1, TS: 2000, Values: []float64{3, 4}}})
	seg.WriteString("FLUSH\nQUIT\n")
	if _, err := c.conn.Write(seg.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"HELLO 3", "PONG", "OK 1", "OK 1", "OK", "BYE"} {
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

// TestStatsCommand: STATS names every counter of server.Stats and of
// odh.HistorianStats (embedded store counters included) exactly once, the
// serving layer's nine first and unchanged, and each value is what a
// snapshot of the quiesced server reads.
func TestStatsCommand(t *testing.T) {
	addr, srv, h := startServerWith(t, 1, Options{})
	c := dial(t, addr)
	for i := 0; i < 10; i++ {
		c.send(t, fmt.Sprintf("WRITE 1 %d %d 3.5", 1000+i*1000, 20+i))
		if got := c.read(t); got != "OK" {
			t.Fatalf("WRITE -> %q", got)
		}
	}
	c.send(t, "FLUSH")
	if got := c.read(t); got != "OK" {
		t.Fatalf("FLUSH -> %q", got)
	}
	// The predicate excludes every flushed record by its zone map.
	c.send(t, "SQL SELECT COUNT(*) FROM environ_data_v WHERE id = 1 AND temperature > 100")
	for line := c.read(t); !strings.HasPrefix(line, "OK "); line = c.read(t) {
		if strings.HasPrefix(line, "ERR") {
			t.Fatal(line)
		}
	}
	c.send(t, "STATS")
	var lines []string
	for line := c.read(t); line != "OK"; line = c.read(t) {
		lines = append(lines, line)
	}

	// The counters, listed here by reflection, not by metrics.Walk.
	var want []string
	var names []string
	var collect func(v reflect.Value)
	collect = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			switch {
			case sf.Anonymous:
				collect(f)
			case f.Kind() == reflect.Int64:
				names, want = append(names, sf.Name), append(want, strconv.FormatInt(f.Int(), 10))
			case f.Kind() == reflect.Float64:
				names, want = append(names, sf.Name), append(want, fmt.Sprint(f.Float()))
			}
		}
	}
	collect(reflect.ValueOf(srv.Stats()))
	collect(reflect.ValueOf(h.TotalStats()))
	if len(lines) != len(want) {
		t.Fatalf("STATS sent %d counters, the two structs hold %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	seen := map[string]bool{}
	got := map[string]string{}
	for i, line := range lines {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed stats line %q", line)
		}
		if seen[name] {
			t.Fatalf("STATS names %q twice", name)
		}
		seen[name], got[name] = true, value
		if strings.ReplaceAll(name, "_", "") != strings.ToLower(names[i]) {
			t.Errorf("line %d is %q, want field %s", i, name, names[i])
		}
		if value != want[i] {
			t.Errorf("%s = %s, a snapshot reads %s", name, value, want[i])
		}
	}
	first := []string{"conns_accepted", "conns_active", "frames_ingested", "points_ingested", "batches_shed", "shed_bytes", "queued_bytes", "queries_timed_out", "forced_closes"}
	for i, name := range first {
		if n, _, _ := strings.Cut(lines[i], " "); n != name {
			t.Errorf("line %d names %q, want %q", i, n, name)
		}
	}
	if got["points_ingested"] != "10" || got["points_written"] != "10" {
		t.Errorf("points_ingested %s, points_written %s, want 10 each", got["points_ingested"], got["points_written"])
	}
	if got["zone_skips"] == "0" || got["zone_skips"] != got["batches_flushed"] {
		t.Errorf("zone_skips %s, want every one of the %s records flushed", got["zone_skips"], got["batches_flushed"])
	}
	for _, name := range []string{"mg_partial_rows", "blob_cache_hits", "io_bytes_read", "wal_group_commits", "pool_hit_rate"} {
		if !seen[name] {
			t.Errorf("STATS lacks %s", name)
		}
	}
}

// wideNullFrame registers a 512-tag source on h and returns n of its
// points with every value NULL: a frame whose payload is a presence bit a
// value and whose decode is eight bytes a value, ≈ 64 times as large.
func wideNullFrame(t *testing.T, h *odh.Historian, n int) []odh.Point {
	t.Helper()
	tags := make([]odh.TagDef, 512)
	for i := range tags {
		tags[i] = odh.TagDef{Name: fmt.Sprintf("t%d", i)}
	}
	schema, err := h.CreateSchema(odh.SchemaType{Name: "wide", Tags: tags})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := h.RegisterSource(odh.DataSource{ID: 1000, SchemaID: schema.ID, Regular: true, IntervalMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	points := make([]odh.Point, n)
	for i := range points {
		v := make([]float64, len(tags))
		for j := range v {
			v[j] = odh.NullValue
		}
		points[i] = odh.Point{Source: ds.ID, TS: int64(i) * 10, Values: v}
	}
	return points
}

// TestAdmissionChargesDecodedSize: a frame is admitted at the larger of
// its payload and its decoded size. An all-NULL frame of ≈ 130 KB decodes
// to ≈ 8 MiB: under a 4 MiB budget — a connection's too, a quarter of it
// being less than one maximum-size frame — it can never fit and
// gets the deterministic too-large ERR, the stream in sync and nothing
// held; under the default budget (16 MiB a connection) it is admitted,
// applied, and its whole reservation released.
func TestAdmissionChargesDecodedSize(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		reply func(n int) string
	}{
		{"4 MiB a connection", Options{MaxInflightBytes: 4 << 20}, func(int) string { return "ERR frame costing" }},
		{"default budget", Options{}, func(n int) string { return fmt.Sprintf("OK %d", n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, srv, h := startServerWith(t, 1, tc.opts)
			points := wideNullFrame(t, h, 2000)
			payload := mustEncode(t, points)
			var decoded int64
			if _, err := tsstore.DecodeFrame(payload[crcBytes:], func(d int64) error { decoded = d; return nil }); err != nil {
				t.Fatal(err)
			}
			if ratio := float64(decoded) / float64(len(payload)); ratio < 60 || decoded < 4<<20 || decoded > 16<<20 {
				t.Fatalf("a %d-byte payload decodes to %d bytes (%.1f×): not the frame this test needs", len(payload), decoded, ratio)
			}
			c := dial(t, addr)
			c.send(t, "HELLO 3")
			if got := c.read(t); got != "HELLO 3" {
				t.Fatalf("HELLO -> %q", got)
			}
			if err := WriteBatchFrame(c.conn, points); err != nil {
				t.Fatal(err)
			}
			if got, want := c.read(t), tc.reply(len(points)); !strings.HasPrefix(got, want) {
				t.Fatalf("a frame of %d bytes decoding to %d -> %q, want %q", len(payload), decoded, got, want)
			}
			c.send(t, "PING")
			if got := c.read(t); got != "PONG" {
				t.Fatalf("stream desynchronized: %q", got)
			}
			if st := srv.Stats(); st.QueuedBytes != 0 || st.BatchesShed != 0 {
				t.Fatalf("after the frame: %d bytes still held, %d frames shed; want 0 and 0", st.QueuedBytes, st.BatchesShed)
			}
		})
	}
}

// sharedLog reads a log file the historian holds open: closing it leaves
// the file open.
type sharedLog struct{ walog.File }

func (sharedLog) Close() error { return nil }

// TestBatchIsTheLogRecord: the recovery-log record of an acked BATCH is
// the payload the client sent, minus its CRC, byte for byte — for a TD
// frame (1 000 points of 4 values), an LD frame (150 points of 15 slots,
// most of them NULL), and a frame the encoder would not write (a presence
// column though no value is NULL), which decodes to the same points as
// the encoder's and so is kept only if the bytes received are logged.
func TestBatchIsTheLogRecord(t *testing.T) {
	wal := pagestore.NewMemFile()
	h, err := odh.Open("", odh.Options{BatchSize: 64, WALBacking: wal})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(h, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		h.Close()
	})
	sources := func(name string, tags, n int) []int64 {
		defs := make([]odh.TagDef, tags)
		for i := range defs {
			defs[i] = odh.TagDef{Name: fmt.Sprintf("t%d", i)}
		}
		schema, err := h.CreateSchema(odh.SchemaType{Name: name, Tags: defs})
		if err != nil {
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
		return ids
	}
	td, ld := sources("td", 4, 50), sources("ld", 15, 30)
	frame := func(ids []int64, n, width, stride int) []odh.Point {
		points := make([]odh.Point, n)
		for i := range points {
			v := make([]float64, width)
			for j := range v {
				v[j] = odh.NullValue
				if (i+j)%stride == 0 {
					v[j] = float64(i*width+j) / 4
				}
			}
			points[i] = odh.Point{Source: ids[i%len(ids)], TS: 1_700_000_000_000 + int64(i/len(ids))*10, Values: v}
		}
		return points
	}
	c := dial(t, addr.String())
	c.send(t, "HELLO 3")
	if got := c.read(t); got != "HELLO 3" {
		t.Fatalf("HELLO -> %q", got)
	}
	odd := []byte{2, 2, 2, 2, 2, byte(2 * td[0]), byte(2 * td[1]), 2, 4, 2, 4, 0x0f, 0x0f} // header, ids, times, run, presence
	for i := range 8 {
		odd = binary.LittleEndian.AppendUint64(odd, math.Float64bits(float64(i)))
	}
	for _, tc := range []struct {
		name    string
		points  []odh.Point
		payload []byte
	}{{"TD", frame(td, 1000, 4, 1), nil}, {"LD", frame(ld, 150, 15, 6), nil}, {"non-canonical", make([]odh.Point, 2), reseal(odd)}} {
		payload := tc.payload
		if payload == nil {
			payload = mustEncode(t, tc.points)
		}
		if _, err := c.conn.Write(append([]byte(fmt.Sprintf("BATCH %d\n", len(payload))), payload...)); err != nil {
			t.Fatal(err)
		}
		if got, want := c.read(t), fmt.Sprintf("OK %d", len(tc.points)); got != want {
			t.Fatalf("%s frame -> %q, want %q", tc.name, got, want)
		}
		l, err := walog.OpenFile(sharedLog{wal}, walog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var kind byte
		var last []byte
		if err := l.Records(func(_ int64, k byte, p []byte) error { kind, last = k, p; return nil }); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if kind != 1 || !bytes.Equal(last, payload[crcBytes:]) { // kind 1: tsstore's frame record
			t.Fatalf("%s frame: the log's last record is kind %d, %d bytes; want kind 1 and the %d bytes sent after the CRC", tc.name, kind, len(last), len(payload)-crcBytes)
		}
		t.Logf("%s: %.2f wire bytes a point", tc.name, float64(len(payload))/float64(len(tc.points)))
	}
}
