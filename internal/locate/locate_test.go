package locate

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"tasp/internal/detect"
	"tasp/internal/flit"
	"tasp/internal/noc"
)

func topoLinks(t *testing.T, name string, w, h int) (noc.Topology, []noc.LinkInfo) {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Topo, cfg.Width, cfg.Height = name, w, h
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n.Topology(), n.Links()
}

func TestPriorsMeshHasNoWraparound(t *testing.T) {
	topo, links := topoLinks(t, "mesh", 4, 4)
	p := ComputePriors(topo, links)
	for id, wrap := range p.Wraparound {
		if wrap {
			t.Fatalf("mesh link %d (%s) flagged wraparound", id, links[id])
		}
	}
	// XY routing concentrates center-column vertical traffic: the max
	// fan-in link must score 1 and every link in (0, 1].
	sawMax := false
	for id, f := range p.FanIn {
		if f < 0 || f > 1 {
			t.Fatalf("fan-in out of range: link %d = %f", id, f)
		}
		if f == 1 {
			sawMax = true
		}
	}
	if !sawMax {
		t.Fatal("no link with normalized fan-in 1")
	}
}

// TestPriorsTorusWraparound: a torus lists its wraparound links after its
// mesh links, and exactly those are flagged. On the 2x2 torus each of them
// runs between the same two routers as a mesh link, so only the port tells
// them apart.
func TestPriorsTorusWraparound(t *testing.T) {
	for _, sz := range [][2]int{{4, 4}, {2, 2}, {3, 5}} {
		w, h := sz[0], sz[1]
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			topo, links := topoLinks(t, "torus", w, h)
			mesh := 2*(w-1)*h + 2*w*(h-1) // the 48 mesh links of the 4x4 torus
			if len(links) != mesh+2*w+2*h {
				t.Fatalf("%d links, want %d mesh and %d wraparound links", len(links), mesh, 2*w+2*h)
			}
			for id, wrap := range ComputePriors(topo, links).Wraparound {
				if want := id >= mesh; wrap != want {
					t.Errorf("link %d (%s): wraparound %v, want %v", id, links[id], wrap, want)
				}
			}
		})
	}
}

func TestPriorsRingWraparoundAndBisection(t *testing.T) {
	topo, links := topoLinks(t, "ring", 4, 4) // 16-router ring
	p := ComputePriors(topo, links)
	var wraps []int
	for id, w := range p.Wraparound {
		if w {
			wraps = append(wraps, id)
		}
	}
	// Exactly the modulo closure pair: cw 15->0 and ccw 0->15.
	if len(wraps) != 2 {
		t.Fatalf("ring wraparound links: got %v, want the 15<->0 pair", wraps)
	}
	for _, id := range wraps {
		l := links[id]
		if !(l.From == 15 && l.To == 0) && !(l.From == 0 && l.To == 15) {
			t.Fatalf("wrong wraparound link: %s", l)
		}
	}
	// Bisection (ids < 8 vs >= 8): the 7<->8 pair and the 15<->0 pair.
	var cuts []int
	for id, b := range p.Bisection {
		if b {
			cuts = append(cuts, id)
		}
	}
	if len(cuts) != 4 {
		t.Fatalf("ring bisection links: got %d (%v), want 4", len(cuts), cuts)
	}
}

// strideWraparound is the wraparound inference ComputePriors used before
// Topology.Dateline, kept as a test oracle: within each port name, the
// links whose id stride To-From is not the group's modal stride (ties to
// the smaller |stride|) are the closures.
func strideWraparound(links []noc.LinkInfo) []bool {
	wrap := make([]bool, len(links))
	byDir := map[string][]int{}
	for _, l := range links {
		byDir[l.FromName] = append(byDir[l.FromName], l.ID)
	}
	for _, ids := range byDir { //nocvet:orderfree each direction writes only its own links
		strides := map[int]int{}
		for _, id := range ids {
			strides[links[id].To-links[id].From]++
		}
		ss := make([]int, 0, len(strides))
		for s := range strides { //nocvet:orderfree keys are sorted before use
			ss = append(ss, s)
		}
		sort.Ints(ss)
		mode, best := 0, -1
		for _, s := range ss {
			if c := strides[s]; c > best || (c == best && iabs(s) < iabs(mode)) {
				mode, best = s, c
			}
		}
		if len(strides) < 2 {
			continue
		}
		for _, id := range ids {
			if links[id].To-links[id].From != mode {
				wrap[id] = true
			}
		}
	}
	return wrap
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestPriorsWraparoundMatchesStrideOracle: on every mesh and torus with
// both sides in 3..9 and every ring of 3..40 routers, the Dateline-derived
// wraparound prior flags the links the stride heuristic flagged. They part
// only where a side is 2 wide (TestPriorsTorusWraparound/2x2).
func TestPriorsWraparoundMatchesStrideOracle(t *testing.T) {
	check := func(name string, w, h int) {
		topo, links := topoLinks(t, name, w, h)
		got, want := ComputePriors(topo, links).Wraparound, strideWraparound(links)
		if !slices.Equal(got, want) {
			t.Fatalf("%s %dx%d: wraparound %v, stride oracle %v", name, w, h, got, want)
		}
	}
	for w := 3; w <= 9; w++ {
		for h := 3; h <= 9; h++ {
			check("mesh", w, h)
			check("torus", w, h)
		}
	}
	for n := 3; n <= 40; n++ {
		check("ring", n, 1)
	}
}

// TestRankWedgedLinkTelemetryOnly wedges one link of a real mesh with a
// NACK-only wire and checks the engine localizes it from blocked-port
// telemetry and priors alone — no detector evidence at all.
func TestRankWedgedLinkTelemetryOnly(t *testing.T) {
	cfg := noc.DefaultConfig()
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var target noc.LinkInfo
	for _, l := range n.Links() {
		if l.From == 1 && l.FromPort == noc.PortWest { // 1 -> 0: dest-0 ingress
			target = l
			break
		}
	}
	n.SetWire(target.ID, nackWire{})
	tel := n.EnableTelemetry(0)
	for i := 0; i < 1200; i++ {
		if i%3 == 0 {
			// Saturate flows that cross the wedged link: east-side routers
			// sending to router 0.
			src := []int{4, 8, 12, 20, 24}[i/3%5] // cores on routers 1, 2, 3, 5, 6
			p := &flit.Packet{Hdr: flit.Header{DstR: 0, VC: uint8(i % 4), Mem: 0x1000}}
			p.Body = []uint64{1, 2, 3}
			n.Inject(src, p)
		}
		n.Step()
		if i%25 == 24 {
			tel.Sample()
		}
	}
	eng := New(n.Topology(), n.Links())
	ranked := eng.RankWeighted(TelemetryWeights(), tel, nil)
	if ranked[0].LinkID != target.ID {
		t.Fatalf("telemetry-only rank-1 = link %d (%s), want wedged link %d (%s); top scores: %+v",
			ranked[0].LinkID, n.Links()[ranked[0].LinkID], target.ID, target, ranked[:3])
	}
	if ranked[0].Confidence <= 0 {
		t.Fatalf("rank-1 confidence %f, want positive margin", ranked[0].Confidence)
	}
}

// nackWire refuses every transmission.
type nackWire struct{}

func (nackWire) Transmit(_ uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, noc.TxResult) {
	return f, noc.TxResult{OK: false}
}

func TestRankDetectorEvidenceDominates(t *testing.T) {
	topo, links := topoLinks(t, "mesh", 4, 4)
	eng := New(topo, links)
	ev := map[int]LinkEvidence{
		7: {Class: detect.Trojan, Retransmissions: 900, FlitsSent: 100},
	}
	ranked := eng.Rank(nil, ev)
	if ranked[0].LinkID != 7 {
		t.Fatalf("rank-1 = %d, want the trojan-classified link 7", ranked[0].LinkID)
	}
	if ranked[0].Det <= ranked[1].Det {
		t.Fatal("detector component not discriminating")
	}
}

func TestRankIsDeterministic(t *testing.T) {
	topo, links := topoLinks(t, "torus", 4, 4)
	eng := New(topo, links)
	a := eng.Rank(nil, nil)
	b := eng.Rank(nil, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// With no evidence at all the ordering is the structural prior alone,
	// ties by id — still a total, stable order.
	for i := 1; i < len(a); i++ {
		if a[i-1].Score < a[i].Score {
			t.Fatal("ranking not sorted")
		}
	}
}

// fanInOracle and feedersOracle are ComputePriors' fan-in walk and New's
// feeder loop before they indexed links by (router, port) and by arrival
// router, kept as test oracles: the walk makes one Route call and one map
// lookup per hop, the loop tests every pair of links.
func fanInOracle(t noc.Topology, links []noc.LinkInfo) []float64 {
	R := t.Routers()
	linkAt := make(map[[2]int]int, len(links))
	for _, l := range links {
		linkAt[[2]int{l.From, l.FromPort}] = l.ID
	}
	counts := make([]int, len(links))
	for src := 0; src < R; src++ {
		for dst := 0; dst < R; dst++ {
			if src == dst {
				continue
			}
			r := src
			for hop := 0; r != dst && hop < R+1; hop++ {
				id, ok := linkAt[[2]int{r, t.Route(r, dst)}]
				if !ok {
					break
				}
				counts[id]++
				r = links[id].To
			}
		}
	}
	max := slices.Max(counts)
	fanIn := make([]float64, len(links))
	for i, c := range counts {
		if max > 0 {
			fanIn[i] = float64(c) / float64(max)
		}
	}
	return fanIn
}

func feedersOracle(links []noc.LinkInfo) [][]int {
	feeders := make([][]int, len(links))
	for _, l := range links {
		for _, f := range links {
			if f.To != l.From || (f.From == l.To && f.To == l.From) {
				continue
			}
			feeders[l.ID] = append(feeders[l.ID], f.ID)
		}
	}
	return feeders
}

// TestEngineMatchesMapWalkOracles: on meshes, tori and rings from the
// smallest to 256 routers, the fan-in prior is bit for bit the map walk's
// and every link's feeders are the pairwise loop's, in the same order.
func TestEngineMatchesMapWalkOracles(t *testing.T) {
	check := func(name string, w, h int) {
		topo, links := topoLinks(t, name, w, h)
		e := New(topo, links)
		want := fanInOracle(topo, links)
		for id, f := range e.priors.FanIn {
			if math.Float64bits(f) != math.Float64bits(want[id]) {
				t.Fatalf("%s %dx%d link %d: fan-in %v, oracle %v", name, w, h, id, f, want[id])
			}
		}
		for id, fs := range feedersOracle(links) {
			if !slices.Equal(e.feeders[id], fs) {
				t.Fatalf("%s %dx%d link %d: feeders %v, oracle %v", name, w, h, id, e.feeders[id], fs)
			}
		}
	}
	for _, sz := range [][2]int{{2, 2}, {2, 5}, {5, 2}, {3, 7}, {4, 4}, {8, 8}, {16, 2}, {16, 16}} {
		check("mesh", sz[0], sz[1])
		check("torus", sz[0], sz[1])
	}
	for _, n := range []int{3, 4, 5, 16, 64, 256} {
		check("ring", n, 1)
	}
}
