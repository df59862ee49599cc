package traffic

import (
	"fmt"
	"math"
	"testing"

	"tasp/internal/noc"
)

// benchmarkOracle is the per-cell form of Benchmark kept as a test oracle:
// it evaluates a router's proximity (a hop-distance scan over the primaries,
// then math.Exp) twice per matrix cell, the transpose partner once per
// cell, and allocates each row on its own.
func benchmarkOracle(name string, cfg noc.Config) *Model {
	p := benchmarks[name]
	topo := cfg.Topology()
	R := cfg.Routers()
	m := &Model{
		Name: name, Rate: p.rate, DataFraction: p.dataFrac, Primary: p.primaries[0],
		Matrix: make([][]float64, R), Intensity: make([]float64, R), cfg: cfg,
	}
	prox := func(r int) float64 {
		best := math.Inf(1)
		for _, pr := range p.primaries {
			if d := float64(topo.HopDist(r, pr)); d < best {
				best = d
			}
		}
		return math.Exp(-p.decay * best)
	}
	for s := 0; s < R; s++ {
		row := make([]float64, R)
		sum := 0.0
		for d := 0; d < R; d++ {
			if d == s {
				continue
			}
			w := prox(s) * prox(d) * (1 - p.transpose - p.uniform)
			if p.transpose > 0 && d == transposeOf(cfg, s) {
				w += p.transpose
			}
			w += p.uniform / float64(R-1)
			row[d] = w
			sum += w
		}
		for d := range row {
			row[d] /= sum
		}
		m.Matrix[s] = row
		m.Intensity[s] = prox(s)
	}
	normalise := func() {
		mean := 0.0
		for _, v := range m.Intensity {
			mean += v
		}
		mean /= float64(R)
		for i := range m.Intensity {
			m.Intensity[i] /= mean
		}
	}
	normalise()
	for i, v := range m.Intensity {
		if v > 3.0 {
			m.Intensity[i] = 3.0
		}
		if v < 0.25 {
			m.Intensity[i] = 0.25
		}
	}
	normalise()
	return m
}

// TestBenchmarkMatchesOracle: every benchmark model's Matrix and Intensity
// are bit for bit the per-cell construction's, on every topology at 4x4,
// 8x8, 16x16 and a non-square size.
func TestBenchmarkMatchesOracle(t *testing.T) {
	for _, topo := range noc.Topologies() {
		for _, dim := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {8, 4}} {
			cfg := noc.DefaultConfig()
			cfg.Topo, cfg.Width, cfg.Height = topo, dim[0], dim[1]
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s %dx%d: %v", topo, dim[0], dim[1], err)
			}
			for _, name := range Benchmarks() {
				got, err := Benchmark(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := benchmarkOracle(name, cfg)
				where := fmt.Sprintf("%s on %s %dx%d", name, topo, dim[0], dim[1])
				if !sameBits(got.Intensity, want.Intensity) {
					t.Fatalf("%s: Intensity differs from the oracle", where)
				}
				for s := range want.Matrix {
					if !sameBits(got.Matrix[s], want.Matrix[s]) {
						t.Fatalf("%s: Matrix row %d differs from the oracle", where, s)
					}
				}
			}
		}
	}
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
