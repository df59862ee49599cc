package noc

import "fmt"

// MaxPorts bounds the per-router port count (including the local port) any
// Topology may declare. Pipeline phases use it for fixed-size scratch state
// so the hot path stays allocation-free regardless of radix.
const MaxPorts = 8

// LinkSpec is one directed router-to-router link a topology declares:
// output port FromPort of router From drives input port ToPort of router To.
type LinkSpec struct {
	From, FromPort, To, ToPort int
}

// Topology describes a network substrate: how many routers exist, how their
// ports are named and wired, the deterministic deadlock-free default route,
// and (for topologies with wraparound channels) each link's wraparound ring
// and the dateline virtual-channel class that keeps the channel-dependency
// graph acyclic.
//
// Port 0 of every router is always the local injection/ejection port; ports
// 1..NumPorts(r)-1 connect to neighbours. Link enumeration order is part of
// the contract: link ids are assigned in Links() order and experiments key
// attack placement on them, so implementations must enumerate
// deterministically.
type Topology interface {
	// Name is the topology's registry key ("mesh", "torus", "ring").
	Name() string
	// Routers returns the router count.
	Routers() int
	// NumPorts returns router r's port count, including the local port.
	NumPorts(r int) int
	// PortName names port p of router r for logs and dumps.
	PortName(r, p int) string
	// Links enumerates every directed router-to-router link.
	Links() []LinkSpec
	// Route returns the output port of the deterministic deadlock-free
	// default route from router r toward destination d (PortLocal when
	// r == d). Dimension-order on mesh/torus, shortest-direction on ring.
	Route(r, d int) int
	// HopDist returns the hop count of the default route from a to b.
	HopDist(a, b int) int
	// VCClass returns the dateline virtual-channel class (0 or 1) a packet
	// destined for dst must occupy in the input buffer at router `to` when
	// it arrives over the link from->to, and whether the topology restricts
	// VC classes at all. The class is a property of the link's dimension:
	// 0 while the packet's remaining path in that dimension still crosses
	// the dimension's wraparound dateline, 1 once it never will again.
	// Topologies whose default route has an acyclic channel-dependency
	// graph without VC restrictions (the mesh) return (0, false).
	VCClass(from, to, dst int) (class int, restricted bool)
	// Dateline names the one-way wraparound ring the link leaving router
	// from on port belongs to, and whether that link is the ring's
	// dateline, the wraparound link where VC class 0 ends. Ring ids are
	// dense from 0. ok is false on topologies without wraparound rings
	// (the mesh) and for ports that drive no link.
	Dateline(from, port int) (ring int, wrap, ok bool)
}

// RouteTable precomputes a topology's default route as a flat
// (router, dst) -> port table: one array load at route-computation time.
func RouteTable(t Topology) RouteFunc {
	R := t.Routers()
	tab := make([]uint8, R*R)
	for r := 0; r < R; r++ {
		for d := 0; d < R; d++ {
			tab[r*R+d] = uint8(t.Route(r, d))
		}
	}
	return func(router, dst int) int {
		return int(tab[router*R+dst])
	}
}

// Topologies lists the available topology names in registry order.
func Topologies() []string { return []string{"mesh", "torus", "ring"} }

// NewTopology constructs a named topology over a width x height router grid
// (the ring uses width*height routers in a cycle). An empty name means mesh.
func NewTopology(name string, width, height int) (Topology, error) {
	switch name {
	case "", "mesh":
		return Mesh{W: width, H: height}, nil
	case "torus":
		return Torus{W: width, H: height}, nil
	case "ring":
		return Ring{N: width * height}, nil
	default:
		return nil, fmt.Errorf("noc: unknown topology %q (have %v)", name, Topologies())
	}
}

// ----------------------------------------------------------------------------
// Mesh

// Mesh is the paper's substrate: a width x height grid with no wraparound.
// XY dimension-order routing is deadlock-free without VC restrictions.
type Mesh struct{ W, H int }

// Name implements Topology.
func (m Mesh) Name() string { return "mesh" }

// Routers implements Topology.
func (m Mesh) Routers() int { return m.W * m.H }

// NumPorts implements Topology: local + E/W/N/S. Edge routers keep the full
// five-port radix with unconnected ports, matching the original hard-wired
// mesh (round-robin pointers sweep the same index space).
func (m Mesh) NumPorts(int) int { return 5 }

// PortName implements Topology.
func (m Mesh) PortName(_, p int) string { return PortName(p) }

// Links implements Topology, preserving the seed simulator's enumeration
// order: row-major over routers, the east pair then the north pair.
func (m Mesh) Links() []LinkSpec {
	var ls []LinkSpec
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r := y*m.W + x
			if x+1 < m.W {
				e := r + 1
				ls = append(ls, LinkSpec{r, PortEast, e, PortWest}, LinkSpec{e, PortWest, r, PortEast})
			}
			if y+1 < m.H {
				s := r + m.W
				ls = append(ls, LinkSpec{r, PortNorth, s, PortSouth}, LinkSpec{s, PortSouth, r, PortNorth})
			}
		}
	}
	return ls
}

// Route implements Topology: XY dimension-order.
func (m Mesh) Route(r, d int) int {
	cx, cy := r%m.W, r/m.W
	dx, dy := d%m.W, d/m.W
	switch {
	case dx > cx:
		return PortEast
	case dx < cx:
		return PortWest
	case dy > cy:
		return PortNorth
	case dy < cy:
		return PortSouth
	default:
		return PortLocal
	}
}

// HopDist implements Topology: Manhattan distance.
func (m Mesh) HopDist(a, b int) int {
	ax, ay := a%m.W, a/m.W
	bx, by := b%m.W, b/m.W
	return iabs(ax-bx) + iabs(ay-by)
}

// VCClass implements Topology: the mesh needs no VC restriction.
func (m Mesh) VCClass(_, _, _ int) (int, bool) { return 0, false }

// Dateline implements Topology: the mesh has no wraparound rings.
func (m Mesh) Dateline(_, _ int) (int, bool, bool) { return 0, false, false }

// ----------------------------------------------------------------------------
// Torus

// Torus is the mesh plus wraparound links in both dimensions. Minimal
// dimension-order routing picks the shorter way around each dimension's
// ring (ties break toward +x/+y). Wraparound closes each ring's
// channel-dependency graph into a cycle, so deadlock freedom needs the
// dateline scheme: a packet buffered behind a dimension-i link occupies VC
// class 0 while its remaining path in dimension i still crosses that
// dimension's dateline (the wraparound link) and class 1 once it never
// will again. Per dimension this splits the ring's dependency cycle into
// two acyclic spirals; dimension-order keeps the x->y composition a DAG.
type Torus struct{ W, H int }

// Name implements Topology.
func (t Torus) Name() string { return "torus" }

// Routers implements Topology.
func (t Torus) Routers() int { return t.W * t.H }

// NumPorts implements Topology: every router has the full five-port radix,
// all connected.
func (t Torus) NumPorts(int) int { return 5 }

// PortName implements Topology.
func (t Torus) PortName(_, p int) string { return PortName(p) }

// Links implements Topology: the mesh links in mesh order, then the
// wraparound pairs (east-west per row, north-south per column).
func (t Torus) Links() []LinkSpec {
	ls := Mesh{W: t.W, H: t.H}.Links()
	for y := 0; y < t.H; y++ {
		last := y*t.W + t.W - 1
		first := y * t.W
		ls = append(ls, LinkSpec{last, PortEast, first, PortWest}, LinkSpec{first, PortWest, last, PortEast})
	}
	for x := 0; x < t.W; x++ {
		last := (t.H-1)*t.W + x
		first := x
		ls = append(ls, LinkSpec{last, PortNorth, first, PortSouth}, LinkSpec{first, PortSouth, last, PortNorth})
	}
	return ls
}

// ringDelta returns the signed displacement of the minimal way from c to d
// around a k-ring: positive = forward (+1 direction), ties break forward.
func ringDelta(c, d, k int) int {
	fwd := ((d-c)%k + k) % k
	if fwd == 0 {
		return 0
	}
	if 2*fwd <= k {
		return fwd
	}
	return fwd - k
}

// Route implements Topology: minimal dimension-order, x before y, shorter
// way around each ring.
func (t Torus) Route(r, d int) int {
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
}

// HopDist implements Topology: minimal ring distance per dimension.
func (t Torus) HopDist(a, b int) int {
	ax, ay := a%t.W, a/t.W
	bx, by := b%t.W, b/t.W
	return iabs(ringDelta(ax, bx, t.W)) + iabs(ringDelta(ay, by, t.H))
}

// VCClass implements Topology. The class is keyed to the dimension of the
// arrival link — the dimension whose buffer the packet occupies — never to
// the dimension it routes next, or a packet parked at its x/y turn could
// hold an x buffer in the y-ring's class and re-close the x cycle. The x
// dateline is the wraparound pair between columns W-1 and 0, the y dateline
// the pair between rows H-1 and 0; x and y channels are disjoint resources
// and dimension-order routing only ever creates x->y dependencies, so the
// two spirals compose into a DAG.
func (t Torus) VCClass(from, to, dst int) (int, bool) {
	cx, cy := to%t.W, to/t.W
	dx, dy := dst%t.W, dst/t.W
	if from/t.W == to/t.W { // x-dimension link (same row)
		if dd := ringDelta(cx, dx, t.W); dd != 0 {
			if (dd > 0 && cx > dx) || (dd < 0 && cx < dx) {
				return 0, true // the x wraparound crossing is still ahead
			}
		}
		return 1, true
	}
	// y-dimension link (same column).
	if dd := ringDelta(cy, dy, t.H); dd != 0 {
		if (dd > 0 && cy > dy) || (dd < 0 && cy < dy) {
			return 0, true
		}
	}
	return 1, true
}

// Dateline implements Topology. Each row carries an east ring (ids 0..H-1)
// and a west ring (H..2H-1), each column a north ring (2H..2H+W-1) and a
// south ring (2H+W..2H+2W-1). The east ring's dateline leaves column W-1,
// the west ring's column 0, the north ring's row H-1 and the south ring's
// row 0: the wraparound links, whichever way they point.
func (t Torus) Dateline(from, port int) (int, bool, bool) {
	x, y := from%t.W, from/t.W
	switch port {
	case PortEast:
		return y, x == t.W-1, true
	case PortWest:
		return t.H + y, x == 0, true
	case PortNorth:
		return 2*t.H + x, y == t.H-1, true
	case PortSouth:
		return 2*t.H + t.W + x, y == 0, true
	}
	return 0, false, false
}

// ----------------------------------------------------------------------------
// Ring

// Ring ports: local, clockwise (+1 mod N) and counter-clockwise (-1 mod N).
const (
	PortCW  = 1
	PortCCW = 2
)

// Ring is a bidirectional ring of N routers, the substrate of the ring
// router microarchitecture line of work: three-port routers, minimal
// shortest-direction routing (ties break clockwise). Each rotation
// direction is a wraparound ring, so the same dateline VC scheme as the
// torus applies, with the clockwise dateline between routers N-1 and 0 and
// the counter-clockwise dateline between 0 and N-1.
type Ring struct{ N int }

// Name implements Topology.
func (g Ring) Name() string { return "ring" }

// Routers implements Topology.
func (g Ring) Routers() int { return g.N }

// NumPorts implements Topology: local + cw + ccw.
func (g Ring) NumPorts(int) int { return 3 }

// PortName implements Topology.
func (g Ring) PortName(_, p int) string {
	switch p {
	case PortLocal:
		return "local"
	case PortCW:
		return "cw"
	case PortCCW:
		return "ccw"
	default:
		return fmt.Sprintf("port(%d)", p)
	}
}

// Links implements Topology: per router, the clockwise pair to its
// successor.
func (g Ring) Links() []LinkSpec {
	var ls []LinkSpec
	for r := 0; r < g.N; r++ {
		next := (r + 1) % g.N
		ls = append(ls, LinkSpec{r, PortCW, next, PortCCW}, LinkSpec{next, PortCCW, r, PortCW})
	}
	return ls
}

// Route implements Topology: shorter direction, ties clockwise.
func (g Ring) Route(r, d int) int {
	switch dd := ringDelta(r, d, g.N); {
	case dd > 0:
		return PortCW
	case dd < 0:
		return PortCCW
	default:
		return PortLocal
	}
}

// HopDist implements Topology.
func (g Ring) HopDist(a, b int) int { return iabs(ringDelta(a, b, g.N)) }

// VCClass implements Topology: same dateline rule as the torus, one ring
// per rotation direction. The ring has a single dimension, so only the
// destination matters.
func (g Ring) VCClass(_, to, dst int) (int, bool) {
	if dd := ringDelta(to, dst, g.N); dd != 0 {
		if (dd > 0 && to > dst) || (dd < 0 && to < dst) {
			return 0, true
		}
	}
	return 1, true
}

// Dateline implements Topology: the clockwise ring (id 0) wraps from N-1 to
// 0, the counter-clockwise ring (id 1) from 0 to N-1.
func (g Ring) Dateline(from, port int) (int, bool, bool) {
	switch port {
	case PortCW:
		return 0, from == g.N-1, true
	case PortCCW:
		return 1, from == 0, true
	}
	return 0, false, false
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
