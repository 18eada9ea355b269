package main

import (
	"math/bits"
	"time"
)

// subBuckets is the number of linear buckets per power of two: values
// are recorded with a relative error below 1/subBuckets (0.8 %).
const subBuckets = 128

// histogram is the one log-linear latency histogram every percentile in
// the benchmark comes from. Values are nanoseconds. Not safe for
// concurrent use: each client goroutine owns one and they are merged
// after the window.
type histogram struct {
	counts [(64 - 6) * subBuckets]uint64
	n      uint64
}

func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 8 // v>>e lies in [128, 256)
	return (e+1)*subBuckets + int(v>>uint(e)) - subBuckets
}

// bucketMid returns the midpoint of bucket i.
func bucketMid(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	e := uint(i/subBuckets - 1)
	lo := uint64(i%subBuckets+subBuckets) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *histogram) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(uint64(d))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *histogram) count() int { return int(h.n) }

// quantileMs returns the q-quantile in milliseconds (0 when empty).
func (h *histogram) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return bucketMid(i) / 1e6
		}
	}
	return 0
}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it, capped at want (p99 needs 1000 samples, p90 100).
// Below 20 samples only the median is supported.
func (h *histogram) tailQuantile(want float64) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if q <= want && float64(h.n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}
