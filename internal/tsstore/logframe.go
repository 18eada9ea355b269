package tsstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"odh/internal/model"
	"odh/internal/walog"
)

// Recovery-log record kinds (walog's kind byte). One log may hold both:
// Open replays a log without recycling it, so frames get appended behind
// whatever an older build left there.
const (
	logPoint byte = 0 // one point in EncodePointWAL's layout: every log written before frames
	logFrame byte = 1 // the points of one ingest call, columnar
)

// ErrUnknownLogRecord reports a recovery-log record of a kind this build
// cannot read, such as one a newer build wrote.
var ErrUnknownLogRecord = errors.New("tsstore: unknown recovery-log record kind")

// ErrCorruptFrame reports a frame whose bytes do not decode: from the
// recovery log, or from a client's BATCH payload.
var ErrCorruptFrame = errors.New("tsstore: corrupt frame")

// maxPointValues bounds the value count a log record may declare for one
// point, before any arithmetic on it.
const maxPointValues = 1 << 20

// frameEnc is the scratch frame records are built in. A frame is five
// columns behind a header of uvarints — the point count, then the byte
// lengths of the first four:
//
//	ids       per point, the source id as a zigzag varint
//	times     per point, the timestamp as a zigzag varint delta from the
//	          previous point of the frame (the first from 0)
//	counts    runs of (points, values per point) as uvarints, so sources of
//	          different schemas share a frame
//	presence  per point ceil(values/8) bytes, bit j set when value j is not
//	          NULL; empty when the frame holds no NULL
//	values    the present values in point order, little-endian float64 bits
//
// A frame is recovered whole or not at all: it is one walog record under
// one checksum.
type frameEnc struct {
	ids, tss, runs, pres, vals, out []byte
	recs                            [][]byte
	inf                             bool // the last frame holds ±Inf
}

var framePool = sync.Pool{New: func() any { return new(frameEnc) }}

// encodeFrames returns the frame payloads holding points in order: one,
// unless it could pass limit bytes — then as many as it takes, none past
// limit unless a single point is. They live in e until it is reused.
func (e *frameEnc) encodeFrames(points []model.Point, limit int) [][]byte {
	e.out, e.recs = e.out[:0], e.recs[:0]
	for len(points) > 0 {
		// The longest prefix that fits however its varints fall.
		n, size := 0, 5*binary.MaxVarintLen64
		for ; n < len(points); n++ {
			nv := len(points[n].Values)
			if size += 4*binary.MaxVarintLen64 + (nv+7)/8 + 8*nv; size > limit && n > 0 {
				break
			}
		}
		start := len(e.out)
		e.appendFrame(points[:n])
		e.recs = append(e.recs, e.out[start:])
		points = points[n:]
	}
	return e.recs
}

// appendFrame appends the frame of points to e.out.
func (e *frameEnc) appendFrame(points []model.Point) {
	ids, tss, runs, pres, vals := e.ids[:0], e.tss[:0], e.runs[:0], e.pres[:0], e.vals[:0]
	var lastTS int64
	runLen, runVals, nulls, inf := 0, 0, false, false
	endRun := func() {
		runs = binary.AppendUvarint(binary.AppendUvarint(runs, uint64(runLen)), uint64(runVals))
		runLen = 0
	}
	for _, p := range points {
		nv := len(p.Values)
		if nv != runVals && runLen > 0 {
			endRun()
		}
		runLen, runVals = runLen+1, nv
		ids = binary.AppendVarint(ids, p.Source)
		tss = binary.AppendVarint(tss, p.TS-lastTS)
		lastTS = p.TS
		base := len(pres)
		for k := (nv + 7) / 8; k > 0; k-- {
			pres = append(pres, 0)
		}
		for j, v := range p.Values {
			if v != v {
				nulls = true
				continue
			}
			inf = inf || math.IsInf(v, 0)
			pres[base+j/8] |= 1 << (j % 8)
			vals = binary.LittleEndian.AppendUint64(vals, math.Float64bits(v))
		}
	}
	if runLen > 0 {
		endRun()
	}
	if !nulls {
		pres = pres[:0]
	}
	e.out = binary.AppendUvarint(e.out, uint64(len(points)))
	for _, c := range [][]byte{ids, tss, runs, pres} {
		e.out = binary.AppendUvarint(e.out, uint64(len(c)))
	}
	for _, c := range [][]byte{ids, tss, runs, pres, vals} {
		e.out = append(e.out, c...)
	}
	e.ids, e.tss, e.runs, e.pres, e.vals, e.inf = ids, tss, runs, pres, vals, inf
}

// LogFrame appends points to l as one frame record — the one encoding of a
// point any log is written in, the cluster's hint logs included — or as
// several records of the one append when they would not fit one.
func LogFrame(l *walog.Log, points []model.Point) error {
	e := framePool.Get().(*frameEnc)
	err := l.AppendKind(logFrame, e.encodeFrames(points, walog.MaxRecord))
	if cap(e.out) <= 4<<20 { // a one-off huge call does not pin its scratch
		framePool.Put(e)
	}
	return err
}

// decodeLogRecord returns the points of one recovery-log record.
func decodeLogRecord(kind byte, payload []byte) ([]model.Point, error) {
	switch kind {
	case logPoint:
		p, err := DecodePointWAL(payload)
		return []model.Point{p}, err
	case logFrame:
		f, err := DecodeFrame(payload, nil)
		return f.points, err
	}
	return nil, fmt.Errorf("%w %d", ErrUnknownLogRecord, kind)
}

// AppendFrame appends the frame of points to dst — the bytes a client
// sends as a BATCH payload and the log keeps as received — and reports
// whether every value is finite or NULL: the wire refuses ±Inf.
func AppendFrame(dst []byte, points []model.Point) ([]byte, bool) {
	e := framePool.Get().(*frameEnc)
	defer framePool.Put(e)
	e.out = dst
	e.appendFrame(points)
	dst, e.out = e.out, nil
	return dst, !e.inf
}

// Frame is a decoded frame: its points, their values windows of one slab,
// and the bytes they came from. Only DecodeFrame builds one, so the bytes
// always encode the points, and Store.WriteFrame logs them as they are.
type Frame struct {
	raw    []byte
	points []model.Point
	vals   []float64
}

// Points returns the frame's points.
func (f Frame) Points() []model.Point { return f.points }

// Finite reports whether every value of the frame is finite or NULL.
func (f Frame) Finite() bool {
	return !slices.ContainsFunc(f.vals, func(v float64) bool { return math.IsInf(v, 0) })
}

// DecodeFrame is the inverse of AppendFrame and of each encodeFrames
// payload. It allocates the points and one slab of values, sized by bytes
// b holds, never by a count it only declares; with an admit, only once
// admit accepts their size (else its error is DecodeFrame's): 40 bytes a
// point and 8 a slab value, up to 64 times len(b) since a NULL costs a
// presence bit. The frame keeps b.
func DecodeFrame(b []byte, admit func(decoded int64) error) (Frame, error) {
	raw := b
	var hdr [5]uint64 // point count, then four column lengths
	for i := range hdr {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return Frame{}, ErrCorruptFrame
		}
		hdr[i], b = v, b[k:]
	}
	var cols [4][]byte
	for i := range cols {
		if hdr[i+1] > uint64(len(b)) {
			return Frame{}, ErrCorruptFrame
		}
		cols[i], b = b[:hdr[i+1]], b[hdr[i+1]:]
	}
	ids, tss, runs, pres, vals := cols[0], cols[1], cols[2], cols[3], b
	if hdr[0] > uint64(len(ids)) { // a point takes a byte of ids at least
		return Frame{}, ErrCorruptFrame
	}
	// The slab holds the most values the columns back: one a presence bit
	// in a frame with NULLs, else one per 8 bytes of values.
	nulls, slabLen := len(pres) > 0, len(vals)/8
	if nulls {
		slabLen = 8 * len(pres)
	}
	if admit != nil {
		if err := admit(40*int64(hdr[0]) + 8*int64(slabLen)); err != nil {
			return Frame{}, err
		}
	}
	f := Frame{raw: raw, points: make([]model.Point, hdr[0]), vals: make([]float64, slabLen)}
	slab := f.vals
	var ts int64
	var runLen, nv uint64
	for i := range f.points {
		if runLen == 0 {
			var k, kv int
			if runLen, k = binary.Uvarint(runs); k > 0 {
				nv, kv = binary.Uvarint(runs[k:])
			}
			if kv <= 0 || runLen == 0 || nv > maxPointValues {
				return Frame{}, ErrCorruptFrame
			}
			runs = runs[k+kv:]
		}
		runLen--
		id, k1 := binary.Varint(ids)
		d, k2 := binary.Varint(tss)
		// What the point declares must be there: its presence bytes or, in
		// a frame without them, its values. Either keeps it in the slab.
		if k1 <= 0 || k2 <= 0 || (nulls && (nv+7)/8 > uint64(len(pres))) || (!nulls && nv > uint64(len(vals)/8)) {
			return Frame{}, ErrCorruptFrame
		}
		ids, tss, ts = ids[k1:], tss[k2:], ts+d
		values := slab[:nv:nv]
		for j := range values {
			if nulls && pres[j/8]>>(j%8)&1 == 0 {
				values[j] = model.NullValue
			} else if len(vals) < 8 {
				return Frame{}, ErrCorruptFrame
			} else {
				values[j], vals = math.Float64frombits(binary.LittleEndian.Uint64(vals)), vals[8:]
			}
		}
		if nulls {
			pres = pres[(nv+7)/8:]
		}
		f.points[i], slab = model.Point{Source: id, TS: ts, Values: values}, slab[nv:]
	}
	if runLen != 0 || len(ids)+len(tss)+len(runs)+len(pres)+len(vals) != 0 {
		return Frame{}, ErrCorruptFrame // columns and count disagree
	}
	return f, nil
}

// EncodePointWAL seals one point into the payload of a logPoint record
// (varint source, varint ts, uvarint value count, float64 bits), which is
// what every log held before frames. Nothing in the engine writes it any
// more: tests build pre-frame logs with it, and the benchmark's ladder
// still times it.
func EncodePointWAL(p model.Point) []byte {
	b := binary.AppendVarint(nil, p.Source)
	b = binary.AppendVarint(b, p.TS)
	b = binary.AppendUvarint(b, uint64(len(p.Values)))
	for _, v := range p.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// DecodePointWAL is the inverse of EncodePointWAL: the logPoint reader.
func DecodePointWAL(b []byte) (model.Point, error) {
	var p model.Point
	var n int
	if p.Source, n = binary.Varint(b); n <= 0 {
		return p, fmt.Errorf("tsstore: corrupt WAL point")
	}
	b = b[n:]
	if p.TS, n = binary.Varint(b); n <= 0 {
		return p, fmt.Errorf("tsstore: corrupt WAL point")
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	// Bound count before the length math: count*8 wraps for adversarial
	// values, which would pass the check and then fail the allocation.
	if n <= 0 || count > maxPointValues || uint64(len(b[n:])) < count*8 {
		return p, fmt.Errorf("tsstore: corrupt WAL point")
	}
	b = b[n:]
	p.Values = make([]float64, count)
	for i := range p.Values {
		p.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return p, nil
}
