// Package stats provides the latency histogram the experiment harness
// aggregates with: a streaming histogram with mean, max and percentile
// queries. It is deterministic and allocation-light so it can run inside
// the per-cycle simulation loop.
package stats

import (
	"fmt"
	"math"
)

// Histogram is a power-of-two-bucketed streaming histogram of non-negative
// integer samples (latencies in cycles). Bucket i holds samples in
// [2^(i-1), 2^i), with bucket 0 holding {0}.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     uint64
	max     uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, 40)}
}

// Reset empties the histogram in place, reusing the bucket storage.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v uint64) int {
	b := 0
	for v > 0 {
		b++
		v >>= 1
	}
	return b
}

// Observe adds one sample.
func (h *Histogram) Observe(v uint64) {
	b := bucketOf(v)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns an upper bound of the p-th percentile (0 < p <= 100):
// the upper edge of the bucket containing it. Bucketing makes this exact to
// within a factor of two, which is the right fidelity for latency tails.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	if p > 100 {
		p = 100
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	var acc uint64
	for i, c := range h.buckets {
		acc += c
		if acc >= target {
			if i == 0 {
				return 0
			}
			return (uint64(1) << uint(i)) - 1
		}
	}
	return h.max
}

// String renders count/mean/p50/p99/max on one line.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p99<=%d max=%d",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
