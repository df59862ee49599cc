package noc

import (
	"fmt"
	"testing"

	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// topoConfig returns the default platform on the named topology.
func topoConfig(topo string) Config {
	c := DefaultConfig()
	c.Topo = topo
	return c
}

func TestTopologyWiring(t *testing.T) {
	cases := []struct {
		topo      string
		links     int
		portsMin  int
		connected int // routers with every non-local port connected
	}{
		{"mesh", 48, 5, 4},   // only the 4 interior routers are fully connected
		{"torus", 64, 5, 16}, // wraparound closes every edge
		{"ring", 32, 3, 16},
	}
	for _, tc := range cases {
		t.Run(tc.topo, func(t *testing.T) {
			n, err := New(topoConfig(tc.topo))
			if err != nil {
				t.Fatal(err)
			}
			links := n.Links()
			if len(links) != tc.links {
				t.Fatalf("want %d links, got %d", tc.links, len(links))
			}
			topo := n.Topology()
			// Every link must be reciprocated: if a->b exists so does b->a.
			dir := map[[2]int]bool{}
			for _, l := range links {
				dir[[2]int{l.From, l.To}] = true
			}
			for _, l := range links {
				if !dir[[2]int{l.To, l.From}] {
					t.Fatalf("link %v has no reverse", l)
				}
			}
			full := 0
			for r := 0; r < topo.Routers(); r++ {
				ports := topo.NumPorts(r)
				if ports < tc.portsMin {
					t.Fatalf("router %d has %d ports, want >= %d", r, ports, tc.portsMin)
				}
				wired := 0
				for _, l := range links {
					if l.From == r {
						wired++
					}
				}
				if wired == ports-1 {
					full++
				}
			}
			if full != tc.connected {
				t.Fatalf("want %d fully connected routers, got %d", tc.connected, full)
			}
		})
	}
}

// TestTopologyRoutesMinimal follows the default route for every (src, dst)
// pair and checks it reaches the destination in exactly HopDist hops.
func TestTopologyRoutesMinimal(t *testing.T) {
	for _, topo := range Topologies() {
		t.Run(topo, func(t *testing.T) {
			n, err := New(topoConfig(topo))
			if err != nil {
				t.Fatal(err)
			}
			tp := n.Topology()
			next := neighborMap(n)
			R := tp.Routers()
			for s := 0; s < R; s++ {
				for d := 0; d < R; d++ {
					cur, hops := s, 0
					for cur != d {
						p := tp.Route(cur, d)
						if p == PortLocal {
							t.Fatalf("%s: route(%d,%d) ejects before arrival", topo, cur, d)
						}
						nb, ok := next[[2]int{cur, p}]
						if !ok {
							t.Fatalf("%s: route(%d,%d) uses unconnected port %d", topo, cur, d, p)
						}
						cur = nb
						if hops++; hops > R {
							t.Fatalf("%s: route %d->%d does not converge", topo, s, d)
						}
					}
					if want := tp.HopDist(s, d); hops != want {
						t.Fatalf("%s: route %d->%d took %d hops, HopDist says %d", topo, s, d, hops, want)
					}
					if tp.Route(d, d) != PortLocal {
						t.Fatalf("%s: route(%d,%d) != local", topo, d, d)
					}
				}
			}
		})
	}
}

// neighborMap indexes (router, output port) -> neighbor router.
func neighborMap(n *Network) map[[2]int]int {
	next := map[[2]int]int{}
	for _, l := range n.Links() {
		next[[2]int{l.From, l.FromPort}] = l.To
	}
	return next
}

// TestChannelDependencyAcyclic is the formal deadlock-freedom check: for
// every topology and size it builds the channel-dependency graph induced by
// the default route table over (link, VC class) resources — the buffer a
// packet occupies at each hop — and asserts it is acyclic. For the mesh this
// is the classic XY turn-restriction argument; for torus and ring it
// verifies that the dateline VC classes cut every wraparound ring's cycle,
// including on the 2-wide tori, whose two links from one router to its
// neighbour ride opposite rings.
func TestChannelDependencyAcyclic(t *testing.T) {
	grids := [][2]int{{2, 2}, {3, 2}, {2, 5}, {4, 4}, {5, 3}, {8, 8}, {16, 16}}
	sizes := map[string][][2]int{"mesh": grids, "torus": grids,
		"ring": {{3, 1}, {4, 1}, {5, 1}, {16, 1}, {64, 1}}}
	for _, topo := range Topologies() {
		t.Run(topo, func(t *testing.T) {
			for _, sz := range sizes[topo] {
				t.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(t *testing.T) {
					channelDependencyAcyclic(t, topo, sz[0], sz[1])
				})
			}
		})
	}
}

// channelDependencyAcyclic is TestChannelDependencyAcyclic on one topology
// of one size.
func channelDependencyAcyclic(t *testing.T, topo string, w, h int) {
	tp, err := NewTopology(topo, w, h)
	if err != nil {
		t.Fatal(err)
	}
	next := map[[2]int]int{}
	linkID := map[[2]int]int{}
	for id, l := range tp.Links() {
		next[[2]int{l.From, l.FromPort}] = l.To
		linkID[[2]int{l.From, l.FromPort}] = id
	}
	type node struct{ link, class int }
	edges := map[node]map[node]bool{}
	R := tp.Routers()
	for s := 0; s < R; s++ {
		for d := 0; d < R; d++ {
			var path []node
			cur := s
			for cur != d {
				p := tp.Route(cur, d)
				nb := next[[2]int{cur, p}]
				cl, _ := tp.VCClass(cur, nb, d)
				path = append(path, node{linkID[[2]int{cur, p}], cl})
				cur = nb
			}
			for i := 1; i < len(path); i++ {
				a, b := path[i-1], path[i]
				if edges[a] == nil {
					edges[a] = map[node]bool{}
				}
				edges[a][b] = true
			}
		}
	}
	// DFS cycle detection.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[node]int{}
	var visit func(u node) bool
	visit = func(u node) bool {
		color[u] = grey
		for v := range edges[u] {
			switch color[v] {
			case grey:
				return false
			case white:
				if !visit(v) {
					return false
				}
			}
		}
		color[u] = black
		return true
	}
	for u := range edges {
		if color[u] == white && !visit(u) {
			t.Fatal("channel-dependency graph has a cycle — routing is not deadlock-free")
		}
	}
}

// TestDatelineTorus2x2 pins Dateline where two links of a 2-wide torus
// join the same routers the same way: the mesh link 1->0 runs west, the
// wraparound 1->0 east. The west and south mesh links (1, 3, 5, 7) are
// their rings' plain links, the wraparound links 9, 11, 13 and 15 those
// rings' datelines. Naming a link by its end routers instead of its port
// files all eight under the east and north rings with the roles swapped.
func TestDatelineTorus2x2(t *testing.T) {
	tp := Torus{W: 2, H: 2}
	type dateline struct {
		ring int
		wrap bool
	}
	want := []dateline{
		{0, false}, {2, false}, {4, false}, {6, false}, // 0->1 E, 1->0 W, 0->2 N, 2->0 S
		{5, false}, {7, false}, {1, false}, {3, false}, // 1->3 N, 3->1 S, 2->3 E, 3->2 W
		{0, true}, {2, true}, {1, true}, {3, true}, // row wraps: 1->0 E, 0->1 W, 3->2 E, 2->3 W
		{4, true}, {6, true}, {5, true}, {7, true}, // column wraps: 2->0 N, 0->2 S, 3->1 N, 1->3 S
	}
	links := tp.Links()
	if len(links) != len(want) {
		t.Fatalf("%d links, want %d", len(links), len(want))
	}
	for id, l := range links {
		ring, wrap, ok := tp.Dateline(l.From, l.FromPort)
		if got := (dateline{ring, wrap}); !ok || got != want[id] {
			t.Errorf("link %d (r%d %s -> r%d): Dateline = %v ok %v, want %v",
				id, l.From, PortName(l.FromPort), l.To, got, ok, want[id])
		}
	}
}

// TestDatelineRingsAreCycles checks Dateline against the definition of a
// wraparound ring on every torus from 2x2 to 9x9 and every ring of 3..40
// routers: every link belongs to a ring, the ring ids are dense, each
// ring's links chain into one directed cycle, and exactly one link of each
// ring is its dateline. The mesh names no ring at all.
func TestDatelineRingsAreCycles(t *testing.T) {
	var topos []Topology
	for w := 2; w <= 9; w++ {
		for h := 2; h <= 9; h++ {
			topos = append(topos, Torus{W: w, H: h}, Mesh{W: w, H: h})
		}
	}
	for n := 3; n <= 40; n++ {
		topos = append(topos, Ring{N: n})
	}
	type ring struct{ start, links, wraps int }
	for _, tp := range topos {
		where := fmt.Sprintf("%s %v", tp.Name(), tp)
		next := map[[2]int]int{} // (ring, from) -> to
		rings := map[int]*ring{}
		for _, l := range tp.Links() {
			id, wrap, ok := tp.Dateline(l.From, l.FromPort)
			if _, mesh := tp.(Mesh); ok == mesh {
				t.Fatalf("%s: link r%d port %d: ok = %v", where, l.From, l.FromPort, ok)
			}
			if !ok {
				continue
			}
			if _, dup := next[[2]int{id, l.From}]; dup {
				t.Fatalf("%s: ring %d leaves r%d twice", where, id, l.From)
			}
			next[[2]int{id, l.From}] = l.To
			r := rings[id]
			if r == nil {
				r = &ring{start: l.From}
				rings[id] = r
			}
			r.links++
			if wrap {
				r.wraps++
			}
		}
		for id := 0; id < len(rings); id++ {
			r := rings[id]
			if r == nil {
				t.Fatalf("%s: ring ids are not dense: no ring %d of %d", where, id, len(rings))
			}
			if r.wraps != 1 {
				t.Fatalf("%s: ring %d has %d dateline links, want 1", where, id, r.wraps)
			}
			cur, steps := r.start, 0
			for steps < r.links {
				cur, steps = next[[2]int{id, cur}], steps+1
				if cur == r.start {
					break
				}
			}
			if cur != r.start || steps != r.links {
				t.Fatalf("%s: ring %d of %d links is not one directed cycle", where, id, r.links)
			}
		}
	}
}

// ringOf is the dateline inference ReclassifyVCs used before Dateline,
// kept as a test oracle: it names a link's ring from its end routers'
// coordinates alone.
func ringOf(topo Topology, from, to int) (id int, wrap, ok bool) {
	switch t := topo.(type) {
	case Ring:
		if to == (from+1)%t.N {
			return 0, from == t.N-1, true // clockwise ring
		}
		if to == (from+t.N-1)%t.N {
			return 1, from == 0, true // counter-clockwise ring
		}
	case Torus:
		fx, fy := from%t.W, from/t.W
		tx, ty := to%t.W, to/t.W
		switch {
		case fy == ty && (tx-fx+t.W)%t.W == 1:
			return fy, fx == t.W-1, true // +x ring of row fy
		case fy == ty && (fx-tx+t.W)%t.W == 1:
			return t.H + fy, fx == 0, true // -x ring of row fy
		case fx == tx && (ty-fy+t.H)%t.H == 1:
			return 2*t.H + fx, fy == t.H-1, true // +y ring of column fx
		case fx == tx && (fy-ty+t.H)%t.H == 1:
			return 2*t.H + t.W + fx, fy == 0, true // -y ring of column fx
		}
	}
	return 0, false, false
}

// TestDatelineMatchesRingOf: on every mesh and torus with both sides in
// 3..9 and every ring of 3..40 routers, Dateline names the ring ringOf
// inferred. They part only where a side is 2 wide (TestDatelineTorus2x2).
func TestDatelineMatchesRingOf(t *testing.T) {
	var topos []Topology
	for w := 3; w <= 9; w++ {
		for h := 3; h <= 9; h++ {
			topos = append(topos, Mesh{W: w, H: h}, Torus{W: w, H: h})
		}
	}
	for n := 3; n <= 40; n++ {
		topos = append(topos, Ring{N: n})
	}
	for _, tp := range topos {
		for id, l := range tp.Links() {
			ring, wrap, ok := tp.Dateline(l.From, l.FromPort)
			oRing, oWrap, oOK := ringOf(tp, l.From, l.To)
			if ring != oRing || wrap != oWrap || ok != oOK {
				t.Fatalf("%s %v link %d: Dateline = (%d, %v, %v), ringOf = (%d, %v, %v)",
					tp.Name(), tp, id, ring, wrap, ok, oRing, oWrap, oOK)
			}
		}
	}
}

// uniformLoad drives deterministic uniform-random traffic into a network.
type uniformLoad struct {
	n    *Network
	rng  *xrand.RNG
	rate float64
	seq  uint8
}

func (u *uniformLoad) tick() {
	cfg := u.n.Config()
	R := cfg.Routers()
	for core := 0; core < cfg.Cores(); core++ {
		if !u.rng.Bool(u.rate) {
			continue
		}
		src := cfg.CoreRouter(core)
		dst := u.rng.Intn(R - 1)
		if dst >= src {
			dst++
		}
		u.seq++
		p := &flit.Packet{Hdr: flit.Header{
			VC:   uint8(u.rng.Intn(cfg.VCs)),
			DstR: uint8(dst),
			DstC: uint8(u.rng.Intn(cfg.Concentration)),
			Mem:  uint32(dst) << 24,
			Seq:  u.seq,
		}}
		if u.rng.Bool(0.4) {
			p.Body = []uint64{1, 2, 3, 4}
		}
		u.n.Inject(core, p)
	}
}

// TestDeadlockFreedomUnderLoad is the per-topology property test: sustained
// uniform-random traffic (no attack) must keep every router unblocked and
// keep delivering packets on mesh, torus and ring alike. Rates sit below
// each substrate's saturation point (the ring's bisection is 4 links, so
// its knee is far lower than the grid topologies').
func TestDeadlockFreedomUnderLoad(t *testing.T) {
	rates := map[string]float64{"mesh": 0.04, "torus": 0.04, "ring": 0.012}
	const (
		cycles = 6000
		window = 250
	)
	for _, topo := range Topologies() {
		t.Run(topo, func(t *testing.T) {
			n, err := New(topoConfig(topo))
			if err != nil {
				t.Fatal(err)
			}
			load := &uniformLoad{n: n, rng: xrand.New(0xd1ce), rate: rates[topo]}
			lastDelivered := uint64(0)
			for c := 0; c < cycles; c++ {
				load.tick()
				n.Step()
				if (c+1)%window != 0 {
					continue
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", c+1, err)
				}
				o := n.Occupancy()
				if o.BlockedRouters != 0 {
					t.Fatalf("cycle %d: %d blocked routers under healthy load\n%s",
						c+1, o.BlockedRouters, n.DebugDump())
				}
				delivered := n.Counters.DeliveredPackets
				if c+1 > window && delivered <= lastDelivered {
					t.Fatalf("cycle %d: delivery stalled at %d packets", c+1, delivered)
				}
				lastDelivered = delivered
			}
			if n.Counters.DeliveredPackets == 0 {
				t.Fatal("no packets delivered")
			}
		})
	}
}

// TestDatelineVCRemap checks that a wrapping torus packet is carried in the
// class-0 VC half while its dateline crossing is still ahead and in the
// class-1 half from the crossing link onward, while a non-wrapping packet
// stays in class 1 throughout.
func TestDatelineVCRemap(t *testing.T) {
	tp := Torus{W: 4, H: 4}
	// Router 2 -> router 0 goes east through the wraparound (2 -> 3 -> 0):
	// distance 2 each way, ties break forward.
	if got := tp.Route(2, 0); got != PortEast {
		t.Fatalf("route(2,0) = %s, want east (wrap)", PortName(got))
	}
	// Link 2->3 is before the crossing: class 0. The wrap link 3->0 performs
	// the crossing, so its downstream buffer is class 1.
	if cl, _ := tp.VCClass(2, 3, 0); cl != 0 {
		t.Fatalf("class on link 2->3 = %d, want 0 (crossing ahead)", cl)
	}
	if cl, _ := tp.VCClass(3, 0, 0); cl != 1 {
		t.Fatalf("class on wrap link 3->0 = %d, want 1 (crossed)", cl)
	}
	// Router 0 -> 2 never wraps: class 1 on both hops.
	for _, l := range [][2]int{{0, 1}, {1, 2}} {
		if cl, _ := tp.VCClass(l[0], l[1], 2); cl != 1 {
			t.Fatalf("non-wrapping flow: class on link %d->%d = %d, want 1", l[0], l[1], cl)
		}
	}

	// End to end: inject on VC 3 at router 2 toward router 0. With the
	// lane-preserving remap v%2 + class*2, link 2->3 must carry the flit in
	// the class-0 half (VC 1) and the wrap link 3->0 in the class-1 half
	// (VC 3).
	n, err := New(topoConfig("torus"))
	if err != nil {
		t.Fatal(err)
	}
	preLink, wrapLink := -1, -1
	for _, l := range n.Links() {
		switch {
		case l.From == 2 && l.To == 3:
			preLink = l.ID
		case l.From == 3 && l.To == 0:
			wrapLink = l.ID
		}
	}
	if preLink < 0 || wrapLink < 0 {
		t.Fatal("missing 2->3 or 3->0 link")
	}
	pre, wrap := n.LinkOutput(preLink), n.LinkOutput(wrapLink)
	seenPre, seenWrap := map[uint8]bool{}, map[uint8]bool{}
	p := &flit.Packet{Hdr: flit.Header{VC: 3, DstR: 0}}
	n.Inject(8, p) // core 8 sits on router 2
	for c := 0; c < 60; c++ {
		for _, e := range pre.entries {
			seenPre[e.vc] = true
		}
		for _, e := range wrap.entries {
			seenWrap[e.vc] = true
		}
		n.Step()
	}
	if n.Counters.DeliveredPackets != 1 {
		t.Fatalf("packet not delivered (delivered=%d)", n.Counters.DeliveredPackets)
	}
	if !seenPre[1] || seenPre[3] {
		t.Fatalf("link 2->3 carried VCs %v, want the class-0 lane VC 1 only", seenPre)
	}
	if !seenWrap[3] || seenWrap[1] {
		t.Fatalf("wrap link carried VCs %v, want the class-1 lane VC 3 only", seenWrap)
	}
}

// TestTopologyNames pins the registry and the port naming of each topology.
func TestTopologyNames(t *testing.T) {
	if got := fmt.Sprintf("%v", Topologies()); got != "[mesh torus ring]" {
		t.Fatalf("Topologies() = %s", got)
	}
	if _, err := NewTopology("hypercube", 4, 4); err == nil {
		t.Fatal("unknown topology accepted")
	}
	g := Ring{N: 8}
	for p, want := range map[int]string{PortLocal: "local", PortCW: "cw", PortCCW: "ccw", 5: "port(5)"} {
		if got := g.PortName(0, p); got != want {
			t.Fatalf("ring port %d named %q, want %q", p, got, want)
		}
	}
	n, err := New(topoConfig("ring"))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Links()[0].String(); got != "r0 cw -> r1" {
		t.Fatalf("ring link label = %q", got)
	}
}
