package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.count != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Fatalf("empty histogram misbehaves: %s", h)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.count != 5 {
		t.Fatalf("count %d", h.count)
	}
	if h.Mean() != 22 {
		t.Fatalf("mean %g", h.Mean())
	}
	if h.Max() != 100 {
		t.Fatalf("max %d", h.Max())
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	h := NewHistogram()
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Bucketed percentile is an upper bound within a factor of two.
	p50 := h.Percentile(50)
	if p50 < 500 || p50 > 1023 {
		t.Fatalf("p50 bound %d", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 990 || p99 > 2047 {
		t.Fatalf("p99 bound %d", p99)
	}
	if h.Percentile(100) < 1000 {
		t.Fatalf("p100 %d below max", h.Percentile(100))
	}
}

func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(uint64(v))
		}
		prev := uint64(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(10)
	b.Observe(1000)
	b.Observe(2)
	a.Merge(b)
	if a.count != 3 || a.Max() != 1000 {
		t.Fatalf("merge broken: %s", a)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Observe(7)
	if !strings.Contains(h.String(), "n=1") {
		t.Fatalf("string: %s", h)
	}
}
