package traffic

import (
	"fmt"
	"math"
	"testing"

	"tasp/internal/noc"
	"tasp/internal/xrand"
)

// linearDst is the reference destination sampler: one sequential running
// sum over the whole row, falling through to the last nonzero entry.
func linearDst(row []float64, src int, x float64) int {
	acc := 0.0
	for d, w := range row {
		acc += w
		if x < acc {
			return d
		}
	}
	for d := len(row) - 1; d >= 0; d-- {
		if row[d] > 0 {
			return d
		}
	}
	return (src + 1) % len(row)
}

// TestSampleDstMatchesLinearScan checks that the checkpointed sampler picks
// the same destination as the full-row scan for the same draw, on every
// benchmark model and the synthetic ones, over mesh, torus and ring
// substrates from 16 to 256 routers (whole blocks and partial tails). The
// draws sit just below and exactly at every checkpoint, at zero, at and
// above the row total (the fall-through), and at random.
func TestSampleDstMatchesLinearScan(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "ring"} {
		for _, size := range []int{4, 5, 6, 8, 12, 16} {
			c := noc.DefaultConfig()
			c.Topo, c.Width, c.Height = topo, size, size
			models := []*Model{Uniform(c, 0.01), Hotspot(c, 0.01, 3, 0.3), transpose(c, 0.01)}
			for _, name := range Benchmarks() {
				m, err := Benchmark(name, c)
				if err != nil {
					t.Fatal(err)
				}
				models = append(models, m)
			}
			for _, m := range models {
				t.Run(fmt.Sprintf("%s-%dx%d-%s", topo, size, size, m.Name), func(t *testing.T) {
					checkSampler(t, m)
				})
			}
		}
	}
}

func checkSampler(t *testing.T, m *Model) {
	g := m.Generator(1)
	rng := xrand.New(5)
	for src, row := range m.Matrix {
		total := 0.0
		var draws []float64
		for d, w := range row {
			total += w
			if d%dstBlock == dstBlock-1 {
				draws = append(draws, total, math.Nextafter(total, -1))
			}
		}
		draws = append(draws, 0, total, math.Nextafter(total, -1), math.Nextafter(total, 2),
			math.Nextafter(1, 0), 1)
		for i := 0; i < 64; i++ {
			draws = append(draws, rng.Float64())
		}
		for _, x := range draws {
			if got, want := g.dstFor(src, x), linearDst(row, src, x); got != want {
				t.Fatalf("row %d, draw %v: checkpointed sampler picked %d, linear scan %d", src, x, got, want)
			}
		}
	}
}

// transpose returns the classic transpose permutation workload: one
// destination per source, a one-hot matrix row.
func transpose(cfg noc.Config, rate float64) *Model {
	R := cfg.Routers()
	m := &Model{Name: "transpose", Rate: rate, DataFraction: 0.4, Matrix: make([][]float64, R), Intensity: make([]float64, R), cfg: cfg}
	for s := 0; s < R; s++ {
		row := make([]float64, R)
		d := transposeOf(cfg, s)
		if d == s {
			d = (s + R/2) % R
		}
		row[d] = 1
		m.Matrix[s] = row
		m.Intensity[s] = 1
	}
	return m
}
