package routing

import (
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
	"tasp/internal/xrand"
)

func cfg() noc.Config { return noc.DefaultConfig() }

// portDelta maps a port to its displacement.
func portDelta(p int) (dx, dy int) {
	switch p {
	case noc.PortEast:
		return 1, 0
	case noc.PortWest:
		return -1, 0
	case noc.PortNorth:
		return 0, 1
	case noc.PortSouth:
		return 0, -1
	}
	return 0, 0
}

// TestAllAlgorithmsMinimalAndProductive checks, for every router/dest pair
// and every algorithm: candidates are non-empty, every candidate moves
// strictly closer to the destination (minimal), and arriving packets eject.
func TestAllAlgorithmsMinimalAndProductive(t *testing.T) {
	c := cfg()
	for name, alg := range Algorithms(c) {
		for r := 0; r < c.Routers(); r++ {
			for d := 0; d < c.Routers(); d++ {
				cands := alg(r, d)
				if len(cands) == 0 {
					t.Fatalf("%s: no candidates %d->%d", name, r, d)
				}
				if r == d {
					if len(cands) != 1 || cands[0] != noc.PortLocal {
						t.Fatalf("%s: arrival at %d does not eject: %v", name, d, cands)
					}
					continue
				}
				rx, ry := c.XY(r)
				dx, dy := c.XY(d)
				dist := abs(rx-dx) + abs(ry-dy)
				for _, p := range cands {
					mx, my := portDelta(p)
					nd := abs(rx+mx-dx) + abs(ry+my-dy)
					if nd != dist-1 {
						t.Fatalf("%s: %d->%d candidate %s is not minimal", name, r, d, noc.PortName(p))
					}
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestWestFirstNeverTurnsWest checks the defining turn restriction: once a
// minimal path has a non-west candidate, west is not among the candidates.
func TestWestFirstNeverTurnsWest(t *testing.T) {
	c := cfg()
	wf := WestFirst(c)
	for r := 0; r < 16; r++ {
		for d := 0; d < 16; d++ {
			cands := wf(r, d)
			hasWest, hasOther := false, false
			for _, p := range cands {
				if p == noc.PortWest {
					hasWest = true
				} else if p != noc.PortLocal {
					hasOther = true
				}
			}
			if hasWest && hasOther {
				t.Fatalf("west mixed with other candidates %d->%d: %v", r, d, cands)
			}
		}
	}
}

// TestNorthLastOnlyAloneNorth checks north appears only as the sole
// candidate.
func TestNorthLastOnlyAloneNorth(t *testing.T) {
	c := cfg()
	nl := NorthLast(c)
	for r := 0; r < 16; r++ {
		for d := 0; d < 16; d++ {
			cands := nl(r, d)
			for _, p := range cands {
				if p == noc.PortNorth && len(cands) > 1 {
					t.Fatalf("north not last %d->%d: %v", r, d, cands)
				}
			}
		}
	}
}

// TestNegativeFirstOrdering checks positive candidates never mix with
// negative ones.
func TestNegativeFirstOrdering(t *testing.T) {
	c := cfg()
	nf := NegativeFirst(c)
	for r := 0; r < 16; r++ {
		for d := 0; d < 16; d++ {
			neg, pos := false, false
			for _, p := range nf(r, d) {
				switch p {
				case noc.PortWest, noc.PortSouth:
					neg = true
				case noc.PortEast, noc.PortNorth:
					pos = true
				}
			}
			if neg && pos {
				t.Fatalf("negative-first mixes directions %d->%d", r, d)
			}
		}
	}
}

// TestOddEvenTurnRules checks the two defining restrictions: EN/ES turns
// only in odd columns, and westbound vertical movement only in even columns.
func TestOddEvenTurnRules(t *testing.T) {
	c := cfg()
	oe := OddEven(c)
	for r := 0; r < 16; r++ {
		cx, _ := c.XY(r)
		for d := 0; d < 16; d++ {
			dx, _ := c.XY(d)
			for _, p := range oe(r, d) {
				vertical := p == noc.PortNorth || p == noc.PortSouth
				if !vertical {
					continue
				}
				if dx > cx && cx%2 == 0 {
					t.Fatalf("EN/ES turn in even column %d (route %d->%d)", cx, r, d)
				}
				if dx < cx && cx%2 == 1 {
					t.Fatalf("westbound vertical in odd column %d (route %d->%d)", cx, r, d)
				}
			}
		}
	}
}

// TestAdaptiveDeliveryUnderLoad floods a network under every algorithm and
// checks everything is delivered (no deadlock, no livelock, no misroute).
func TestAdaptiveDeliveryUnderLoad(t *testing.T) {
	for name, alg := range Algorithms(cfg()) {
		n, err := noc.New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		n.SetAdaptiveRoute(alg)
		rng := xrand.New(7)
		want := 0
		for i := 0; i < 300; i++ {
			core := rng.Intn(64)
			dst := rng.Intn(16)
			if c := cfg(); dst == c.CoreRouter(core) {
				continue
			}
			p := &flit.Packet{Hdr: flit.Header{VC: uint8(rng.Intn(4)), DstR: uint8(dst)}}
			if rng.Bool(0.4) {
				p.Body = []uint64{1, 2, 3, 4}
			}
			if n.Inject(core, p) {
				want++
			}
		}
		n.Run(4000)
		if got := int(n.Counters.DeliveredPackets); got != want {
			t.Errorf("%s: delivered %d of %d packets", name, got, want)
		}
	}
}

// TestAdaptiveAvoidsCongestedCandidate wedges one candidate link and checks
// the adaptive selector steers around it when the turn model allows.
func TestAdaptiveAvoidsCongestedCandidate(t *testing.T) {
	c := cfg()
	n, err := noc.New(c)
	if err != nil {
		t.Fatal(err)
	}
	n.SetAdaptiveRoute(WestFirst(c))
	// Wedge link 0->1 (east) with a dead wire; traffic 0->5 (east+north)
	// should adapt through north.
	for _, l := range n.Links() {
		if l.From == 0 && l.FromPort == noc.PortEast {
			n.SetWire(l.ID, deadWire{})
		}
	}
	// Prime congestion on the east output so the selector sees it: four
	// single-flit packets (one per VC) wedge in its retransmission buffer,
	// leaving the input VCs clear for the probes.
	for i := 0; i < 4; i++ {
		n.Inject(0, &flit.Packet{Hdr: flit.Header{VC: uint8(i), DstR: 1}})
	}
	n.Run(60)
	before := n.Counters.DeliveredPackets
	for i := 0; i < 4; i++ {
		n.Inject(0, &flit.Packet{Hdr: flit.Header{VC: uint8(i % 4), DstR: 5}})
	}
	n.Run(400)
	if got := n.Counters.DeliveredPackets - before; got != 4 {
		t.Fatalf("adaptive routing delivered %d of 4 packets around congestion", got)
	}
}

type deadWire struct{}

func (deadWire) Transmit(_ uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, noc.TxResult) {
	return f, noc.TxResult{OK: false}
}

// TestTopologyLegality checks the per-topology certification: the turn
// models are mesh-only, the default route is offered everywhere, and
// Algorithms filters accordingly.
func TestTopologyLegality(t *testing.T) {
	for _, topo := range noc.Topologies() {
		if !ValidOn("xy", topo) {
			t.Errorf("xy must be valid on %s", topo)
		}
	}
	for _, algo := range []string{"west-first", "north-last", "negative-first", "odd-even"} {
		if !ValidOn(algo, "mesh") {
			t.Errorf("%s must be valid on mesh", algo)
		}
		for _, topo := range []string{"torus", "ring"} {
			if ValidOn(algo, topo) {
				t.Errorf("%s must not be certified on %s (wraparound breaks the turn-model proof)", algo, topo)
			}
		}
	}
	if ValidOn("nonsense", "mesh") {
		t.Error("unknown algorithm certified")
	}

	if got := len(Algorithms(cfg())); got != 5 {
		t.Errorf("mesh offers %d algorithms, want 5", got)
	}
	for _, topo := range []string{"torus", "ring"} {
		c := cfg()
		c.Topo = topo
		algs := Algorithms(c)
		if len(algs) != 1 || algs["xy"] == nil {
			t.Errorf("%s offers %v, want only xy", topo, algs)
		}
	}
}

// TestRingXYFollowsShortestDirection spot-checks that the xy algorithm on a
// ring is the shortest-direction route, not mesh arithmetic.
func TestRingXYFollowsShortestDirection(t *testing.T) {
	c := cfg()
	c.Topo = "ring"
	route := XY(c)
	if got := route(0, 15); len(got) != 1 || got[0] != noc.PortCCW {
		t.Fatalf("route(0,15) = %v, want counter-clockwise wrap", got)
	}
	if got := route(0, 3); len(got) != 1 || got[0] != noc.PortCW {
		t.Fatalf("route(0,3) = %v, want clockwise", got)
	}
}
