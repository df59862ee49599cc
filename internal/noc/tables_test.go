package noc

import (
	"bytes"
	"fmt"
	"testing"
)

// routeOracle, hopDistOracle and vcClassOracle are the per-pair rules Mesh,
// Torus and Ring implemented before each became a composition of per-axis
// decisions, kept as test oracles.
func routeOracle(topo Topology, r, d int) int {
	switch t := topo.(type) {
	case Mesh:
		cx, cy := r%t.W, r/t.W
		dx, dy := d%t.W, d/t.W
		switch {
		case dx > cx:
			return PortEast
		case dx < cx:
			return PortWest
		case dy > cy:
			return PortNorth
		case dy < cy:
			return PortSouth
		}
		return PortLocal
	case Torus:
		cx, cy := r%t.W, r/t.W
		dx, dy := d%t.W, d/t.W
		if dd := ringDelta(cx, dx, t.W); dd > 0 {
			return PortEast
		} else if dd < 0 {
			return PortWest
		}
		if dd := ringDelta(cy, dy, t.H); dd > 0 {
			return PortNorth
		} else if dd < 0 {
			return PortSouth
		}
		return PortLocal
	case Ring:
		switch dd := ringDelta(r, d, t.N); {
		case dd > 0:
			return PortCW
		case dd < 0:
			return PortCCW
		}
		return PortLocal
	}
	panic(fmt.Sprintf("no oracle for %T", topo))
}

func hopDistOracle(topo Topology, a, b int) int {
	switch t := topo.(type) {
	case Mesh:
		return iabs(a%t.W-b%t.W) + iabs(a/t.W-b/t.W)
	case Torus:
		return iabs(ringDelta(a%t.W, b%t.W, t.W)) + iabs(ringDelta(a/t.W, b/t.W, t.H))
	case Ring:
		return iabs(ringDelta(a, b, t.N))
	}
	panic(fmt.Sprintf("no oracle for %T", topo))
}

func vcClassOracle(topo Topology, from, to, dst int) (int, bool) {
	// ahead reports whether the shorter way from c to d around a k-ring
	// still crosses the wraparound between k-1 and 0.
	ahead := func(c, d, k int) bool {
		dd := ringDelta(c, d, k)
		return dd != 0 && ((dd > 0 && c > d) || (dd < 0 && c < d))
	}
	switch t := topo.(type) {
	case Mesh:
		return 0, false
	case Torus:
		if from/t.W == to/t.W { // x-dimension link (same row)
			if ahead(to%t.W, dst%t.W, t.W) {
				return 0, true
			}
			return 1, true
		}
		if ahead(to/t.W, dst/t.W, t.H) {
			return 0, true
		}
		return 1, true
	case Ring:
		if ahead(to, dst, t.N) {
			return 0, true
		}
		return 1, true
	}
	panic(fmt.Sprintf("no oracle for %T", topo))
}

// routeTableOracle is RouteTable before Routes: one Route call per pair.
func routeTableOracle(t Topology) []uint8 {
	R := t.Routers()
	tab := make([]uint8, R*R)
	for r := 0; r < R; r++ {
		for d := 0; d < R; d++ {
			tab[r*R+d] = uint8(t.Route(r, d))
		}
	}
	return tab
}

// classTablesOracle is New's class-table fill before VCClasses: one
// VCClass call per link and destination, nil where VCClass restricts
// nothing.
func classTablesOracle(t Topology) [][]uint8 {
	links := t.Links()
	if _, restricted := t.VCClass(0, links[0].To, 0); !restricted {
		return nil
	}
	R := t.Routers()
	tables := make([][]uint8, len(links))
	for id, l := range links {
		tables[id] = make([]uint8, R)
		for d := 0; d < R; d++ {
			c, _ := t.VCClass(l.From, l.To, d)
			tables[id][d] = uint8(c)
		}
	}
	return tables
}

// tableTopologies are the shapes the table tests cover: meshes and tori
// with square, one-side-2, odd and 256-router grids, and rings from the
// smallest to the largest a header addresses.
func tableTopologies() []Topology {
	var ts []Topology
	for _, sz := range [][2]int{{2, 2}, {2, 5}, {5, 2}, {3, 7}, {4, 4}, {8, 8}, {16, 2}, {16, 16}} {
		ts = append(ts, Mesh{W: sz[0], H: sz[1]}, Torus{W: sz[0], H: sz[1]})
	}
	for _, n := range []int{3, 4, 5, 16, 64, 256} {
		ts = append(ts, Ring{N: n})
	}
	return ts
}

// tableConfig is the default platform on a table topology.
func tableConfig(tp Topology) Config {
	c := DefaultConfig()
	c.Topo = tp.Name()
	switch t := tp.(type) {
	case Mesh:
		c.Width, c.Height = t.W, t.H
	case Torus:
		c.Width, c.Height = t.W, t.H
	case Ring:
		c.Width, c.Height = t.N, 1
	}
	return c
}

// TestRoutesMatchOracles: Routes, the table composed from per-axis
// decisions, equals one Route call per pair, and Route and HopDist equal
// the per-pair rules they replaced, on every table topology.
func TestRoutesMatchOracles(t *testing.T) {
	for _, tp := range tableTopologies() {
		R := tp.Routers()
		got, want := tp.Routes(), routeTableOracle(tp)
		if i := diffAt(got, want); i < len(want) || len(got) != len(want) {
			t.Fatalf("%s %v: Routes()[%d] differs from Route(%d, %d)", tp.Name(), tp, i, i/R, i%R)
		}
		for r := 0; r < R; r++ {
			for d := 0; d < R; d++ {
				if got, want := tp.Route(r, d), routeOracle(tp, r, d); got != want {
					t.Fatalf("%s %v: Route(%d, %d) = %d, oracle %d", tp.Name(), tp, r, d, got, want)
				}
				if got, want := tp.HopDist(r, d), hopDistOracle(tp, r, d); got != want {
					t.Fatalf("%s %v: HopDist(%d, %d) = %d, oracle %d", tp.Name(), tp, r, d, got, want)
				}
			}
		}
	}
}

// TestVCClassesMatchOracles: VCClasses, the tables tiled from per-axis
// rows, equals one VCClass call per link and destination, and VCClass
// equals the per-triple rule it replaced, on every table topology.
func TestVCClassesMatchOracles(t *testing.T) {
	for _, tp := range tableTopologies() {
		got, want := tp.VCClasses(), classTablesOracle(tp)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%s %v: VCClasses gives %d tables, the oracle %d", tp.Name(), tp, len(got), len(want))
		}
		for id := range want {
			if !bytes.Equal(got[id], want[id]) {
				t.Fatalf("%s %v link %d: VCClasses %v, oracle %v", tp.Name(), tp, id, got[id], want[id])
			}
		}
		for _, l := range tp.Links() {
			for d := 0; d < tp.Routers(); d++ {
				c, r := tp.VCClass(l.From, l.To, d)
				oc, or := vcClassOracle(tp, l.From, l.To, d)
				if c != oc || r != or {
					t.Fatalf("%s %v: VCClass(%d, %d, %d) = (%d, %v), oracle (%d, %v)",
						tp.Name(), tp, l.From, l.To, d, c, r, oc, or)
				}
			}
		}
	}
}

// TestIndexLinksMatchesWiring: IndexLinks names, for every router and
// port, the link the network wired there, and -1 where it wired none.
func TestIndexLinksMatchesWiring(t *testing.T) {
	for _, tp := range tableTopologies() {
		n, err := New(tableConfig(tp))
		if err != nil {
			t.Fatal(err)
		}
		at := IndexLinks(tp.Routers(), n.LinkSlice())
		for r, rt := range n.routers {
			for p := 0; p < MaxPorts; p++ {
				want := -1
				if p < len(rt.outputs) {
					want = rt.outputs[p].linkID
				}
				if got := at.Link(r, p); got != want {
					t.Fatalf("%s %v: Link(%d, %d) = %d, wired %d", tp.Name(), tp, r, p, got, want)
				}
			}
		}
	}
}

// TestNetworkTablesResetToFresh: a network installs the oracle route table
// and gives every link its own copy of the oracle class table; after
// ReclassifyVCs rewrites the class tables, Reset restores exactly a fresh
// network's, and that restore allocates nothing.
func TestNetworkTablesResetToFresh(t *testing.T) {
	for _, tp := range tableTopologies() {
		cfg := tableConfig(tp)
		t.Run(fmt.Sprintf("%s-%dx%d", cfg.Topo, cfg.Width, cfg.Height), func(t *testing.T) {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			R := tp.Routers()
			routes := routeTableOracle(tp)
			for r := 0; r < R; r++ {
				for d := 0; d < R; d++ {
					if got := n.route(r, d); got != int(routes[r*R+d]) {
						t.Fatalf("installed route(%d, %d) = %d, oracle %d", r, d, got, routes[r*R+d])
					}
				}
			}
			want := classTablesOracle(tp)
			check := func(when string) {
				t.Helper()
				own := map[*uint8]bool{}
				for id, l := range n.LinkSlice() {
					cl := n.routers[l.From].outputs[l.FromPort].vcClass
					if want == nil {
						if cl != nil {
							t.Fatalf("%s: link %d has a class table on an unrestricted topology", when, id)
						}
						continue
					}
					if !bytes.Equal(cl, want[id]) {
						t.Fatalf("%s: link %d class table %v, oracle %v", when, id, cl, want[id])
					}
					if own[&cl[0]] {
						t.Fatalf("%s: link %d shares its class table", when, id)
					}
					own[&cl[0]] = true
				}
			}
			check("fresh")
			if want == nil {
				return
			}
			n.ReclassifyVCs()
			changed := false
			for id, l := range n.LinkSlice() {
				changed = changed || !bytes.Equal(n.routers[l.From].outputs[l.FromPort].vcClass, want[id])
			}
			if !changed {
				t.Fatal("ReclassifyVCs rewrote no class table; the restore went untested")
			}
			n.Reset()
			check("reset after ReclassifyVCs")
			if avg := testing.AllocsPerRun(10, func() {
				n.vcReclassed = true
				n.Reset()
			}); avg != 0 {
				t.Fatalf("restoring the class tables allocates %.1f times", avg)
			}
			check("repeated restores")
		})
	}
}
