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
	// Proximity of a router to the nearest primary, decayed per hop of the
	// topology's own distance metric.
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
			// Gravity component: both endpoints near a primary.
			w := prox(s) * prox(d) * (1 - p.transpose - p.uniform)
			// Transpose component (butterfly-style exchanges).
			if p.transpose > 0 && d == transposeOf(cfg, s) {
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
		m.Intensity[s] = prox(s)
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

// Transpose returns the classic transpose permutation workload.
func Transpose(cfg noc.Config, rate float64) *Model {
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

// Generator draws packets from a model, deterministically from a seed.
type Generator struct {
	m   *Model
	rng *xrand.RNG
	seq []uint8 // per-core packet sequence numbers
}

// Generator returns a new deterministic packet source for the model.
func (m *Model) Generator(seed uint64) *Generator {
	return &Generator{m: m, rng: xrand.New(seed), seq: make([]uint8, m.cfg.Cores())}
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

// Model returns the model the generator draws from.
func (g *Generator) Model() *Model { return g.m }

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
func (g *Generator) sampleDst(src int) int {
	x := g.rng.Float64()
	row := g.m.Matrix[src]
	acc := 0.0
	for d, w := range row {
		acc += w
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

// LinkLoads computes the analytic per-link traffic shares of a model under
// the topology's default routing (the quantity in Figure 1(c)). The result
// is indexed by link id (the topology's Links() order, which is the
// network's link numbering) and holds each directed link's share of total
// link traversals.
func LinkLoads(m *Model, cfg noc.Config) []float64 {
	return LinkLoadsWhere(m, cfg, nil)
}

// LinkLoadsWhere computes per-link traffic shares restricted to flows for
// which keep(src, dst) is true (nil keeps all). The attacker's link-
// selection analysis (Section III-A) uses this to place trojans on the
// links its *target* flows actually cross. Keying by link id keeps
// parallel links apart: on a torus 2 routers wide, the mesh link and the
// wraparound link join the same two routers.
func LinkLoadsWhere(m *Model, cfg noc.Config, keep func(src, dst int) bool) []float64 {
	topo := cfg.Topology()
	route := noc.RouteTable(topo)
	specs := topo.Links()
	// out[r][port] is the id of the link leaving router r on that port.
	out := make([][]int, cfg.Routers())
	for r := range out {
		out[r] = make([]int, topo.NumPorts(r))
	}
	for id, ls := range specs {
		out[ls.From][ls.FromPort] = id
	}
	loads := make([]float64, len(specs))
	total := 0.0
	for s := 0; s < cfg.Routers(); s++ {
		for d := 0; d < cfg.Routers(); d++ {
			w := m.Matrix[s][d] * m.Intensity[s]
			if w == 0 || s == d || (keep != nil && !keep(s, d)) {
				continue
			}
			for cur := s; cur != d; {
				id := out[cur][route(cur, d)]
				loads[id] += w
				total += w
				cur = specs[id].To
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

// RouterTotals returns per-router outbound packet weight (Figure 1(b)'s
// geographic source hot spots).
func RouterTotals(m *Model) []float64 {
	out := make([]float64, len(m.Matrix))
	for s := range m.Matrix {
		out[s] = m.Intensity[s]
	}
	return out
}
