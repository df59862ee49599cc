// Package traffic provides the workload models that stand in for the
// paper's PARSEC and SPLASH-2 traffic traces. Real traces are not
// redistributable, so each benchmark is modelled statistically from the
// paper's own characterisation (Section III-A, Figure 1): traffic localises
// around one or two primary routers, the load an application induces
// "diminishes as the distance from the main core increases", and a
// considerable share of traffic crosses links a few hops from the primary.
// The models reproduce exactly those shapes, which is all the attack and
// mitigation results depend on.
package traffic

import (
	"fmt"
	"math"
	"sort"

	"tasp/internal/flit"
	"tasp/internal/noc"
	"tasp/internal/xrand"
)

// Model is a statistical traffic model over a concentrated NoC: a
// row-normalised source-router x destination-router weight matrix plus
// per-source injection intensities. Spatial shapes (proximity decay,
// transpose partners) are derived from the configured topology's own hop
// metric, so the same benchmark localises correctly on mesh, torus and
// ring substrates.
type Model struct {
	Name string
	// Rate is the mean packets per core per cycle, before the per-source
	// intensity shaping.
	Rate float64
	// Matrix[s][d] is the probability a packet from router s targets
	// router d (rows sum to 1).
	Matrix [][]float64
	// Intensity[s] scales each source router's injection rate (mean 1).
	Intensity []float64
	// DataFraction is the share of packets that are 5-flit data packets;
	// the rest are single-flit requests.
	DataFraction float64
	// Primary is the router the workload concentrates around.
	Primary int

	cfg noc.Config
}

// benchmarks maps names to model parameters: the primary router(s), the
// spatial decay per hop, the injection rate, the data-packet share, and an
// optional transpose component (FFT's butterfly exchanges).
var benchmarks = map[string]struct {
	primaries []int
	decay     float64
	rate      float64
	dataFrac  float64
	transpose float64 // 0..1 blend of transpose permutation traffic
	uniform   float64 // 0..1 blend of uniform background traffic
}{
	// PARSEC
	"blackscholes": {primaries: []int{0}, decay: 0.85, rate: 0.045, dataFrac: 0.35, uniform: 0.05},
	"facesim":      {primaries: []int{5}, decay: 0.55, rate: 0.060, dataFrac: 0.45, uniform: 0.10},
	"ferret":       {primaries: []int{2, 13}, decay: 0.60, rate: 0.060, dataFrac: 0.40, uniform: 0.10},
	"canneal":      {primaries: []int{6}, decay: 0.35, rate: 0.055, dataFrac: 0.50, uniform: 0.20},
	"dedup":        {primaries: []int{1, 14}, decay: 0.55, rate: 0.055, dataFrac: 0.55, uniform: 0.10},
	"swaptions":    {primaries: []int{0}, decay: 0.90, rate: 0.045, dataFrac: 0.30, uniform: 0.05},
	"vips":         {primaries: []int{9}, decay: 0.45, rate: 0.055, dataFrac: 0.45, uniform: 0.15},
	// SPLASH-2
	"fft":    {primaries: []int{0}, decay: 0.25, rate: 0.065, dataFrac: 0.50, transpose: 0.45, uniform: 0.10},
	"radix":  {primaries: []int{0}, decay: 0.30, rate: 0.060, dataFrac: 0.50, transpose: 0.30, uniform: 0.15},
	"barnes": {primaries: []int{10}, decay: 0.40, rate: 0.055, dataFrac: 0.45, uniform: 0.15},
	"ocean":  {primaries: []int{5, 10}, decay: 0.35, rate: 0.060, dataFrac: 0.55, uniform: 0.10},
	"water":  {primaries: []int{4}, decay: 0.50, rate: 0.050, dataFrac: 0.40, uniform: 0.10},
}

// Benchmarks returns the available benchmark names, sorted.
func Benchmarks() []string {
	names := make([]string, 0, len(benchmarks))
	for n := range benchmarks { //nocvet:orderfree keys are sorted before use
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Known reports whether name is an available benchmark. It allocates
// nothing, so per-point validation can call it.
func Known(name string) bool {
	_, ok := benchmarks[name]
	return ok
}

// Benchmark constructs the named benchmark model for the configured
// topology.
func Benchmark(name string, cfg noc.Config) (*Model, error) {
	p, ok := benchmarks[name]
	if !ok {
		return nil, fmt.Errorf("traffic: unknown benchmark %q (have %v)", name, Benchmarks())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology()
	R := cfg.Routers()
	m := &Model{
		Name:         name,
		Rate:         p.rate,
		DataFraction: p.dataFrac,
		Primary:      p.primaries[0],
		Matrix:       make([][]float64, R),
		Intensity:    make([]float64, R),
		cfg:          cfg,
	}
	// prox[r] is the proximity of router r to the nearest primary, decayed
	// per hop of the topology's own distance metric.
	prox := make([]float64, R)
	for r := range prox {
		best := math.Inf(1)
		for _, pr := range p.primaries {
			if d := float64(topo.HopDist(r, pr)); d < best {
				best = d
			}
		}
		prox[r] = math.Exp(-p.decay * best)
	}
	// The rows share one backing array.
	cells := make([]float64, R*R)
	for s := 0; s < R; s++ {
		row := cells[s*R : (s+1)*R : (s+1)*R]
		sum := 0.0
		partner := transposeOf(cfg, s)
		for d := 0; d < R; d++ {
			if d == s {
				continue
			}
			// Gravity component: both endpoints near a primary.
			w := prox[s] * prox[d] * (1 - p.transpose - p.uniform)
			// Transpose component (butterfly-style exchanges).
			if p.transpose > 0 && d == partner {
				w += p.transpose
			}
			// Uniform background.
			w += p.uniform / float64(R-1)
			row[d] = w
			sum += w
		}
		for d := range row {
			row[d] /= sum
		}
		m.Matrix[s] = row
		m.Intensity[s] = prox[s]
	}
	// Normalise intensities to mean 1 so Rate keeps its meaning, then clamp
	// the spread: real traces concentrate sources near the primary core but
	// no core sustains more than a few times the average injection rate.
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
	return m, nil
}

// transposeOf maps router (x, y) to (y, x) on a square mesh or torus (or
// reflects on rectangular ones). On a ring, where there is no second
// dimension to swap, it reflects the cycle: r -> (N - r) mod N, the ring
// analogue of a butterfly exchange partner.
func transposeOf(cfg noc.Config, r int) int {
	if cfg.TopoName() == "ring" {
		return (cfg.Routers() - r) % cfg.Routers()
	}
	x, y := cfg.XY(r)
	tx, ty := y%cfg.Width, x%cfg.Height
	return cfg.RouterAt(tx, ty)
}

// Uniform returns a uniform-random model at the given packet rate.
func Uniform(cfg noc.Config, rate float64) *Model {
	R := cfg.Routers()
	m := &Model{Name: "uniform", Rate: rate, DataFraction: 0.4, Matrix: make([][]float64, R), Intensity: make([]float64, R), cfg: cfg}
	for s := 0; s < R; s++ {
		row := make([]float64, R)
		for d := 0; d < R; d++ {
			if d != s {
				row[d] = 1 / float64(R-1)
			}
		}
		m.Matrix[s] = row
		m.Intensity[s] = 1
	}
	return m
}

// Hotspot returns a model where frac of all traffic targets the hotspot
// router and the rest is uniform.
//
//nocvet:keep core's TestCongestionNeverConvictsHealthyLinks saturates the network with it
func Hotspot(cfg noc.Config, rate float64, hotspot int, frac float64) *Model {
	m := Uniform(cfg, rate)
	m.Name = "hotspot"
	m.Primary = hotspot
	for s := range m.Matrix {
		row := m.Matrix[s]
		sum := 0.0
		for d := range row {
			if d == hotspot && d != s {
				row[d] = frac + (1-frac)*row[d]
			} else {
				row[d] *= 1 - frac
			}
			sum += row[d]
		}
		for d := range row {
			row[d] /= sum
		}
	}
	return m
}

// Generator draws packets from a model, deterministically from a seed.
type Generator struct {
	m   *Model
	rng *xrand.RNG
	seq []uint8 // per-core packet sequence numbers
	// cps[s*nb+k] is row s's running sum over its first (k+1)*dstBlock
	// entries, accumulated in sampleDst's scan order; nb is the number of
	// whole blocks per row. sampleDst skips whole blocks with them.
	cps []float64
	nb  int
}

// dstBlock is the destination-sampling checkpoint stride: every dstBlock-th
// running sum of a matrix row is stored. A full prefix table would cost a
// float per matrix entry; this one costs one per dstBlock entries.
const dstBlock = 16

// Generator returns a new deterministic packet source for the model. It
// snapshots the matrix's row checkpoints, so the matrix must not change
// afterwards.
func (m *Model) Generator(seed uint64) *Generator {
	R := len(m.Matrix)
	g := &Generator{m: m, rng: xrand.New(seed), seq: make([]uint8, m.cfg.Cores()), nb: R / dstBlock}
	g.cps = make([]float64, 0, R*g.nb)
	for _, row := range m.Matrix {
		acc := 0.0
		for d, w := range row[:g.nb*dstBlock] {
			acc += w
			if d%dstBlock == dstBlock-1 {
				g.cps = append(g.cps, acc)
			}
		}
	}
	return g
}

// Reset rewinds the generator to its post-construction state for the given
// seed without allocating: the RNG is reseeded in place and the per-core
// sequence numbers cleared, so the subsequent draw stream is identical to a
// fresh Generator(seed). Simulation arenas use it to reuse one generator
// across scenario points.
func (g *Generator) Reset(seed uint64) {
	g.rng.Seed(seed)
	for i := range g.seq {
		g.seq[i] = 0
	}
}

// GeneratorState is a copy of a generator's draw position: its RNG state
// and per-core sequence numbers. Restoring it makes the generator draw
// exactly the stream it drew after the save.
type GeneratorState struct {
	rng xrand.RNG
	seq []uint8
}

// Save copies the generator's draw position into s, reusing s's storage.
func (g *Generator) Save(s *GeneratorState) {
	s.rng = *g.rng
	s.seq = append(s.seq[:0], g.seq...)
}

// Restore rewinds the generator to a position Save took from a generator
// of the same model. It allocates nothing.
func (g *Generator) Restore(s *GeneratorState) {
	*g.rng = s.rng
	copy(g.seq, s.seq)
}

// TickInto rolls injection for every core for one cycle and calls inject
// for each generated packet. Packets are written into the caller-owned
// scratch packet, which inject must fully consume before returning
// (noc.Network.Inject copies the flits into the NI queue, so passing it
// through a closure over a network satisfies that). inject reports
// acceptance; rejected packets are simply dropped by the generator (the
// source is stalled, which the injection-queue occupancy statistics already
// capture).
func (g *Generator) TickInto(scratch *flit.Packet, inject func(core int, p *flit.Packet) bool) {
	conc := g.m.cfg.Concentration
	for r, core := 0, 0; r < g.m.cfg.Routers(); r++ {
		rate := g.m.Rate * g.m.Intensity[r]
		for end := core + conc; core < end; core++ {
			if !g.rng.Bool(rate) {
				continue
			}
			g.PacketInto(core, scratch)
			inject(core, scratch)
		}
	}
}

// PacketInto draws one packet originating at the given core into a
// caller-owned packet, overwriting its header and reusing its body storage
// once grown. The RNG draw order is destination, VC, core, address, data
// coin, body words.
func (g *Generator) PacketInto(core int, p *flit.Packet) {
	cfg := &g.m.cfg
	src := cfg.CoreRouter(core)
	dst := g.sampleDst(src)
	g.seq[core]++
	vc := uint8(g.rng.Intn(cfg.VCs))
	dstC := uint8(g.rng.Intn(cfg.Concentration))
	mem := uint32(dst)<<24 | uint32(g.rng.Intn(1<<20))
	p.Hdr = flit.Header{VC: vc, DstR: uint8(dst), DstC: dstC, Mem: mem, Seq: g.seq[core]}
	if g.rng.Bool(g.m.DataFraction) {
		if cap(p.Body) < 4 {
			p.Body = make([]uint64, 4) // cold: first data packet only; reused after
		}
		p.Body = p.Body[:4]
		for i := range p.Body {
			p.Body[i] = g.rng.Uint64()
		}
	} else {
		p.Body = p.Body[:0]
	}
}

// sampleDst draws a destination router from the model's matrix row.
func (g *Generator) sampleDst(src int) int { return g.dstFor(src, g.rng.Float64()) }

// dstFor returns the destination for draw x: the first d whose running row
// sum exceeds x. Running sums of non-negative weights never decrease, so a
// block whose closing checkpoint is <= x holds no answer; the scan skips
// those blocks and resumes the sequential sum from the last skipped one,
// reproducing a full scan's sums bit for bit.
func (g *Generator) dstFor(src int, x float64) int {
	row := g.m.Matrix[src]
	d, acc := 0, 0.0
	for _, c := range g.cps[src*g.nb : (src+1)*g.nb] {
		if x < c {
			break
		}
		d, acc = d+dstBlock, c
	}
	for ; d < len(row); d++ {
		acc += row[d]
		if x < acc {
			return d
		}
	}
	// Floating-point slack: return the last nonzero entry.
	for d := len(row) - 1; d >= 0; d-- {
		if row[d] > 0 {
			return d
		}
	}
	return (src + 1) % len(row)
}

// LinkLoadsWhere computes the analytic per-link traffic shares of a model
// (the quantity in Figure 1(c)) restricted to flows for which keep(src,
// dst) is true (nil keeps all). route is the topology's default route and
// links the network's link list, indexed by id: Network.DefaultRoute and
// Network.LinkSlice. The result, indexed by link id, holds each directed
// link's share of the kept flows' link traversals. The attacker's link-
// selection analysis (Section III-A) uses this to place trojans on the
// links its *target* flows actually cross. Keying by link id keeps
// parallel links apart: on a torus 2 routers wide, the mesh link and the
// wraparound link join the same two routers. A flow's walk ends early if
// the route leads to an unwired port or runs past R hops.
func LinkLoadsWhere(m *Model, route noc.RouteFunc, links []noc.LinkInfo, keep func(src, dst int) bool) []float64 {
	R := len(m.Matrix)
	at := noc.IndexLinks(R, links)
	loads := make([]float64, len(links))
	total := 0.0
	for s := 0; s < R; s++ {
		for d := 0; d < R; d++ {
			if s == d || (keep != nil && !keep(s, d)) {
				continue
			}
			w := m.Matrix[s][d] * m.Intensity[s]
			if w == 0 {
				continue
			}
			for cur, hop := s, 0; cur != d && hop <= R; hop++ {
				id := at.Link(cur, route(cur, d))
				if id < 0 {
					break
				}
				loads[id] += w
				total += w
				cur = links[id].To
			}
		}
	}
	if total == 0 {
		return loads // no kept flow crosses any link
	}
	for id := range loads {
		loads[id] /= total
	}
	return loads
}
