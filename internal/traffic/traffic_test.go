package traffic

import (
	"math"
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
)

func cfg() noc.Config { return noc.DefaultConfig() }

// linkLoads is the unfiltered LinkLoadsWhere over a network built on c.
func linkLoads(t *testing.T, m *Model, c noc.Config) []float64 {
	t.Helper()
	n, err := noc.New(c)
	if err != nil {
		t.Fatal(err)
	}
	return LinkLoadsWhere(m, n.DefaultRoute(), n.LinkSlice(), -1, -1)
}

func TestBenchmarksListStable(t *testing.T) {
	names := Benchmarks()
	if len(names) < 10 {
		t.Fatalf("expected at least 10 benchmarks, got %d", len(names))
	}
	for _, need := range []string{"blackscholes", "facesim", "ferret", "fft"} {
		found := false
		for _, n := range names {
			if n == need {
				found = true
			}
		}
		if !found {
			t.Errorf("Figure 10 benchmark %q missing", need)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Benchmark("doom", cfg()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMatrixRowsNormalised(t *testing.T) {
	for _, name := range Benchmarks() {
		m, err := Benchmark(name, cfg())
		if err != nil {
			t.Fatal(err)
		}
		for s, row := range m.Matrix {
			sum := 0.0
			for d, w := range row {
				if w < 0 {
					t.Fatalf("%s: negative weight at (%d,%d)", name, s, d)
				}
				if d == s && w != 0 {
					t.Fatalf("%s: self traffic at router %d", name, s)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s: row %d sums to %g", name, s, sum)
			}
		}
	}
}

func TestIntensityMeanIsOne(t *testing.T) {
	for _, name := range Benchmarks() {
		m, _ := Benchmark(name, cfg())
		sum := 0.0
		for _, v := range m.Intensity {
			sum += v
		}
		if mean := sum / float64(len(m.Intensity)); math.Abs(mean-1) > 1e-9 {
			t.Fatalf("%s: intensity mean %g", name, mean)
		}
	}
}

// TestBlackscholesLocalisation checks the Figure 1 shape the paper
// describes: traffic concentrates around the primary router and diminishes
// with hop distance.
func TestBlackscholesLocalisation(t *testing.T) {
	m, _ := Benchmark("blackscholes", cfg())
	if m.Primary != 0 {
		t.Fatalf("blackscholes primary router %d, want 0", m.Primary)
	}
	// Source intensity must decay monotonically with distance from the
	// primary (routers 0, 1, 2, 3 are successive hops along the bottom row).
	if !(m.Intensity[0] > m.Intensity[1] && m.Intensity[1] > m.Intensity[2] && m.Intensity[2] > m.Intensity[3]) {
		t.Fatalf("intensity not decaying with distance: %v", m.Intensity[:4])
	}
	// The primary's row must weight near routers above far routers.
	if m.Matrix[0][1] <= m.Matrix[0][15] {
		t.Fatalf("near destination not preferred: to r1 %g, to r15 %g", m.Matrix[0][1], m.Matrix[0][15])
	}
}

func TestFerretHasTwoHotRegions(t *testing.T) {
	m, _ := Benchmark("ferret", cfg())
	// Ferret's pipeline model has primaries at routers 2 and 13; both must
	// be hotter than the mesh-median router.
	if m.Intensity[2] <= 1 || m.Intensity[13] <= 1 {
		t.Fatalf("ferret primaries not hot: r2=%g r13=%g", m.Intensity[2], m.Intensity[13])
	}
}

func TestFFTHasTransposeComponent(t *testing.T) {
	m, _ := Benchmark("fft", cfg())
	// Router 1 = (1,0); transpose partner is (0,1) = router 4.
	if m.Matrix[1][4] <= m.Matrix[1][5] {
		t.Fatalf("fft transpose partner not preferred: to r4 %g, to r5 %g", m.Matrix[1][4], m.Matrix[1][5])
	}
}

func TestSyntheticModels(t *testing.T) {
	u := Uniform(cfg(), 0.05)
	for s, row := range u.Matrix {
		for d, w := range row {
			if d == s {
				continue
			}
			if math.Abs(w-1.0/15) > 1e-9 {
				t.Fatalf("uniform weight (%d,%d)=%g", s, d, w)
			}
		}
	}
	h := Hotspot(cfg(), 0.05, 5, 0.5)
	if h.Matrix[0][5] < 0.5 {
		t.Fatalf("hotspot share %g", h.Matrix[0][5])
	}
	tr := transpose(cfg(), 0.05)
	if tr.Matrix[1][4] != 1 {
		t.Fatalf("transpose(1) weight to 4 is %g", tr.Matrix[1][4])
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	m, _ := Benchmark("blackscholes", cfg())
	collect := func() []flit.Header {
		g := m.Generator(7)
		var hs []flit.Header
		var scratch flit.Packet
		for i := 0; i < 500; i++ {
			g.TickInto(&scratch, func(core int, p *flit.Packet) bool {
				hs = append(hs, p.Hdr)
				return true
			})
		}
		return hs
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("generator produced no packets in 500 cycles")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic packet count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGeneratorFieldsValid(t *testing.T) {
	m, _ := Benchmark("ferret", cfg())
	g := m.Generator(3)
	c := cfg()
	var scratch flit.Packet
	for i := 0; i < 2000; i++ {
		g.TickInto(&scratch, func(core int, p *flit.Packet) bool {
			if int(p.Hdr.DstR) >= c.Routers() {
				t.Fatalf("bad destination router %d", p.Hdr.DstR)
			}
			if int(p.Hdr.DstR) == c.CoreRouter(core) {
				t.Fatalf("self-router traffic generated")
			}
			if int(p.Hdr.VC) >= c.VCs {
				t.Fatalf("bad VC %d", p.Hdr.VC)
			}
			if got := int(p.Hdr.Mem >> 24); got != int(p.Hdr.DstR) {
				t.Fatalf("mem address region %d does not match destination %d", got, p.Hdr.DstR)
			}
			n := p.NumFlits()
			if n != 1 && n != 5 {
				t.Fatalf("packet size %d flits, want 1 or 5", n)
			}
			return true
		})
	}
}

func TestLinkLoadsSumToOne(t *testing.T) {
	m, _ := Benchmark("blackscholes", cfg())
	loads := linkLoads(t, m, cfg())
	if len(loads) != len(cfg().Topology().Links()) {
		t.Fatalf("%d loads for %d links", len(loads), len(cfg().Topology().Links()))
	}
	sum := 0.0
	for id, v := range loads {
		if v < 0 {
			t.Fatalf("negative load on link %d", id)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("loads sum to %g", sum)
	}
}

// loadBetween returns the load of the link from router from to router to.
func loadBetween(t *testing.T, loads []float64, from, to int) float64 {
	t.Helper()
	for id, l := range cfg().Topology().Links() {
		if l.From == from && l.To == to {
			return loads[id]
		}
	}
	t.Fatalf("no link %d->%d", from, to)
	return 0
}

// TestLinkLoadsConcentrateNearPrimary checks Figure 1(c)'s claim that links
// near the primary core carry a disproportionate share of traffic.
func TestLinkLoadsConcentrateNearPrimary(t *testing.T) {
	m, _ := Benchmark("blackscholes", cfg())
	loads := linkLoads(t, m, cfg())
	near := loadBetween(t, loads, 0, 1) + loadBetween(t, loads, 1, 0)
	far := loadBetween(t, loads, 14, 15) + loadBetween(t, loads, 15, 14)
	if near <= far {
		t.Fatalf("link near primary (%g) not hotter than far link (%g)", near, far)
	}
}

// TestLinkLoadsMatchSimulation cross-checks the analytic Figure 1(c) loads
// against the cycle-accurate simulator's per-link counters.
func TestLinkLoadsMatchSimulation(t *testing.T) {
	c := cfg()
	m, _ := Benchmark("blackscholes", c)
	analytic := linkLoads(t, m, c)

	n, err := noc.New(c)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Generator(11)
	var scratch flit.Packet
	for i := 0; i < 20000; i++ {
		g.TickInto(&scratch, func(core int, p *flit.Packet) bool { return n.Inject(core, p) })
		n.Step()
	}
	var total uint64
	for _, l := range n.Links() {
		total += n.LinkOutput(l.ID).FlitsSent
	}
	// The hottest analytic link must be among the top simulated links.
	bestID, best := 0, 0.0
	for id, v := range analytic {
		if v > best {
			bestID, best = id, v
		}
	}
	if sim := float64(n.LinkOutput(bestID).FlitsSent) / float64(total); sim < best/3 {
		t.Fatalf("hottest analytic link %d (%.3f) carries only %.3f in simulation", bestID, best, sim)
	}
}

// TestLinkLoadsKeepParallelLinksApart checks the 2-wide torus, where the
// mesh link and the wraparound link join the same two routers: only the
// one the default route takes carries load.
func TestLinkLoadsKeepParallelLinksApart(t *testing.T) {
	c := cfg()
	c.Topo = "torus"
	c.Width, c.Height = 2, 2
	m, err := Benchmark("blackscholes", c)
	if err != nil {
		t.Fatal(err)
	}
	loads := linkLoads(t, m, c)
	topo := c.Topology()
	route := noc.RouteTable(topo)
	// used[r][port]: some flow's default route leaves router r on port.
	used := make([]map[int]bool, c.Routers())
	for r := range used {
		used[r] = map[int]bool{}
	}
	for s := 0; s < c.Routers(); s++ {
		for d := 0; d < c.Routers(); d++ {
			if s == d || m.Matrix[s][d] == 0 {
				continue
			}
			for cur := s; cur != d; {
				port := route(cur, d)
				used[cur][port] = true
				for _, l := range topo.Links() {
					if l.From == cur && l.FromPort == port {
						cur = l.To
						break
					}
				}
			}
		}
	}
	for id, l := range topo.Links() {
		if on := used[l.From][l.FromPort]; on != (loads[id] > 0) {
			t.Errorf("link %d (r%d port %d -> r%d): load %g, on a route %v", id, l.From, l.FromPort, l.To, loads[id], on)
		}
	}
}

// TestLinkLoadsStopAtBadRoutes: a route that leads to an unwired port
// charges no link, and one that cycles ends after R hops, where a walk
// that read an unwired port as link 0 charged it and went on.
func TestLinkLoadsStopAtBadRoutes(t *testing.T) {
	c := cfg()
	m, err := Benchmark("blackscholes", c)
	if err != nil {
		t.Fatal(err)
	}
	n, err := noc.New(c)
	if err != nil {
		t.Fatal(err)
	}
	unwired := func(int, int) int { return noc.MaxPorts - 1 }
	for id, v := range LinkLoadsWhere(m, unwired, n.LinkSlice(), -1, -1) {
		if v != 0 {
			t.Fatalf("route to an unwired port: link %d carries %g", id, v)
		}
	}
	// Between routers 0 and 1, east then west forever.
	shuttle := func(r, _ int) int {
		if r%2 == 0 {
			return noc.PortEast
		}
		return noc.PortWest
	}
	loads := LinkLoadsWhere(m, shuttle, n.LinkSlice(), 0, 2)
	for id, l := range n.LinkSlice() {
		between := (l.From == 0 && l.To == 1) || (l.From == 1 && l.To == 0)
		if between != (loads[id] > 0) {
			t.Fatalf("cycling route: link %v carries %g", l, loads[id])
		}
	}
}

func TestRouterTotals(t *testing.T) {
	m, _ := Benchmark("blackscholes", cfg())
	tot := m.Intensity
	if len(tot) != 16 {
		t.Fatalf("want 16 totals, got %d", len(tot))
	}
	if tot[0] <= tot[15] {
		t.Fatalf("primary router not hottest: r0=%g r15=%g", tot[0], tot[15])
	}
}
