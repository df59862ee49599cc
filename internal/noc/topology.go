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
	// Routes returns Route for every pair as a flat table,
	// tab[r*Routers()+d], built from the per-dimension decisions Route
	// composes instead of one Route call per pair.
	Routes() []uint8
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
	// VCClasses returns VCClass for every link and destination: tables[id]
	// is the class table of link id (Links() order), tables[id][dst] its
	// class for dst. It is nil on topologies that restrict no classes.
	// Links of one dimension arriving at the same coordinate in it have
	// equal tables and share one: a caller that writes a table copies it.
	VCClasses() [][]uint8
	// Dateline names the one-way wraparound ring the link leaving router
	// from on port belongs to, and whether that link is the ring's
	// dateline, the wraparound link where VC class 0 ends. Ring ids are
	// dense from 0. ok is false on topologies without wraparound rings
	// (the mesh) and for ports that drive no link.
	Dateline(from, port int) (ring int, wrap, ok bool)
}

// RouteTable returns a topology's default route as a RouteFunc over its
// Routes table: one array load at route-computation time.
func RouteTable(t Topology) RouteFunc {
	R := t.Routers()
	tab := t.Routes()
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
// Dimension-order grids

// Every topology here routes in dimension order over one or two axes: the
// mesh over two lines, the torus over two rings, the ring over one ring
// (for routing, a one-row torus with cw/ccw ports). The route, the hop
// distance and the dateline class are each decided per axis, from the two
// routers' coordinates on that axis alone. Route, HopDist and VCClass
// compose those decisions for one pair; Routes and VCClasses compose them
// for every pair from per-axis tables, k×k entries an axis instead of one
// decision per (router or link, destination) pair.

// axis is one dimension of a grid: k positions along a line (the mesh) or
// around a ring (the torus and ring), and the ports that step up and down
// it.
type axis struct {
	k           int
	wrap        bool
	plus, minus uint8
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

// delta is the default route's signed displacement from coordinate c to d:
// straight along a line, the shorter way around a ring (ties forward).
func (a axis) delta(c, d int) int {
	if a.wrap {
		return ringDelta(c, d, a.k)
	}
	return d - c
}

// port is the default route's decision on the axis: the port from
// coordinate c toward d, PortLocal once they agree.
func (a axis) port(c, d int) uint8 {
	switch dd := a.delta(c, d); {
	case dd > 0:
		return a.plus
	case dd < 0:
		return a.minus
	}
	return PortLocal
}

// class is the dateline VC class on a ring axis of a packet that arrived
// at coordinate c bound for d: 0 while its shorter way ahead still crosses
// the wraparound between k-1 and 0, 1 once it never will again.
func (a axis) class(c, d int) uint8 {
	if dd := ringDelta(c, d, a.k); (dd > 0 && c > d) || (dd < 0 && c < d) {
		return 0
	}
	return 1
}

// table tabulates f over every coordinate pair: tab[c*k+d] = f(c, d).
func (a axis) table(f func(c, d int) uint8) []uint8 {
	tab := make([]uint8, a.k*a.k)
	for c := 0; c < a.k; c++ {
		for d := 0; d < a.k; d++ {
			tab[c*a.k+d] = f(c, d)
		}
	}
	return tab
}

// grid is a dimension-order topology over an x and a y axis: router r sits
// at (r mod x.k, r div x.k), and the default route steps along x until the
// column agrees, then along y.
type grid struct{ x, y axis }

// dimOrder composes the per-axis route decisions: x first, then y.
func dimOrder(x, y uint8) uint8 {
	if x != PortLocal {
		return x
	}
	return y
}

// route is the default route for one pair.
func (g grid) route(r, d int) int {
	w := g.x.k
	return int(dimOrder(g.x.port(r%w, d%w), g.y.port(r/w, d/w)))
}

// routes is route for every pair, composed row by row from the two axes'
// port tables.
func (g grid) routes() []uint8 {
	w, h := g.x.k, g.y.k
	R := w * h
	xs, ys := g.x.table(g.x.port), g.y.table(g.y.port)
	tab := make([]uint8, R*R)
	for r := 0; r < R; r++ {
		cx, cy := r%w, r/w
		row := tab[r*R : (r+1)*R]
		for dy, y := range ys[cy*h : (cy+1)*h] {
			for dx, x := range xs[cx*w : (cx+1)*w] {
				row[dy*w+dx] = dimOrder(x, y)
			}
		}
	}
	return tab
}

// hopDist is the default route's hop count: the axes' distances summed.
func (g grid) hopDist(a, b int) int {
	w := g.x.k
	return iabs(g.x.delta(a%w, b%w)) + iabs(g.y.delta(a/w, b/w))
}

// onX reports whether the link from->to runs along x: it joins two
// routers of one row.
func (g grid) onX(from, to int) bool { return from/g.x.k == to/g.x.k }

// vcClass is the class of a packet bound for dst in the buffer the link
// from->to fills, decided on the link's own axis.
func (g grid) vcClass(from, to, dst int) int {
	w := g.x.k
	if g.onX(from, to) {
		return int(g.x.class(to%w, dst%w))
	}
	return int(g.y.class(to/w, dst/w))
}

// vcClasses is vcClass for every link and destination. The table of a
// link depends only on its axis and its arrival coordinate on it, so
// there is one table per (axis, coordinate), w+h in all, each tiled from
// the axis's class table.
func (g grid) vcClasses(links []LinkSpec) [][]uint8 {
	w, h := g.x.k, g.y.k
	R := w * h
	xc, yc := g.x.table(g.x.class), g.y.table(g.y.class)
	rows := make([]uint8, (w+h)*R)
	row := func(i int) []uint8 { return rows[i*R : (i+1)*R : (i+1)*R] }
	for cx := 0; cx < w; cx++ {
		r := row(cx)
		for dy := 0; dy < h; dy++ {
			copy(r[dy*w:], xc[cx*w:(cx+1)*w])
		}
	}
	for cy := 0; cy < h; cy++ {
		r := row(w + cy)
		for dy, c := range yc[cy*h : (cy+1)*h] {
			for dx := 0; dx < w; dx++ {
				r[dy*w+dx] = c
			}
		}
	}
	tables := make([][]uint8, len(links))
	for id, l := range links {
		if g.onX(l.From, l.To) {
			tables[id] = row(l.To % w)
		} else {
			tables[id] = row(w + l.To/w)
		}
	}
	return tables
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

// grid is the mesh as two lines, x along a row and y along a column.
func (m Mesh) grid() grid {
	return grid{axis{m.W, false, PortEast, PortWest}, axis{m.H, false, PortNorth, PortSouth}}
}

// Route implements Topology: XY dimension-order.
func (m Mesh) Route(r, d int) int { return m.grid().route(r, d) }

// Routes implements Topology.
func (m Mesh) Routes() []uint8 { return m.grid().routes() }

// HopDist implements Topology: Manhattan distance.
func (m Mesh) HopDist(a, b int) int { return m.grid().hopDist(a, b) }

// VCClass implements Topology: the mesh needs no VC restriction.
func (m Mesh) VCClass(_, _, _ int) (int, bool) { return 0, false }

// VCClasses implements Topology: the mesh needs no VC restriction.
func (m Mesh) VCClasses() [][]uint8 { return nil }

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

// grid is the torus as two rings, x around a row and y around a column.
func (t Torus) grid() grid {
	return grid{axis{t.W, true, PortEast, PortWest}, axis{t.H, true, PortNorth, PortSouth}}
}

// Route implements Topology: minimal dimension-order, x before y, shorter
// way around each ring.
func (t Torus) Route(r, d int) int { return t.grid().route(r, d) }

// Routes implements Topology.
func (t Torus) Routes() []uint8 { return t.grid().routes() }

// HopDist implements Topology: minimal ring distance per dimension.
func (t Torus) HopDist(a, b int) int { return t.grid().hopDist(a, b) }

// VCClass implements Topology. The class is keyed to the dimension of the
// arrival link — the dimension whose buffer the packet occupies — never to
// the dimension it routes next, or a packet parked at its x/y turn could
// hold an x buffer in the y-ring's class and re-close the x cycle. The x
// dateline is the wraparound pair between columns W-1 and 0, the y dateline
// the pair between rows H-1 and 0; x and y channels are disjoint resources
// and dimension-order routing only ever creates x->y dependencies, so the
// two spirals compose into a DAG.
func (t Torus) VCClass(from, to, dst int) (int, bool) { return t.grid().vcClass(from, to, dst), true }

// VCClasses implements Topology: one table per column for the row links,
// one per row for the column links.
func (t Torus) VCClasses() [][]uint8 { return t.grid().vcClasses(t.Links()) }

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

// grid is the ring as a one-row torus: its one axis is the cycle.
func (g Ring) grid() grid { return grid{x: axis{g.N, true, PortCW, PortCCW}, y: axis{k: 1}} }

// Route implements Topology: shorter direction, ties clockwise.
func (g Ring) Route(r, d int) int { return g.grid().route(r, d) }

// Routes implements Topology.
func (g Ring) Routes() []uint8 { return g.grid().routes() }

// HopDist implements Topology.
func (g Ring) HopDist(a, b int) int { return g.grid().hopDist(a, b) }

// VCClass implements Topology: same dateline rule as the torus, one ring
// per rotation direction. The ring has a single dimension, so only the
// arrival router and the destination matter.
func (g Ring) VCClass(from, to, dst int) (int, bool) { return g.grid().vcClass(from, to, dst), true }

// VCClasses implements Topology: one table per arrival router.
func (g Ring) VCClasses() [][]uint8 { return g.grid().vcClasses(g.Links()) }

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
