// Package reroute is the fault-tolerant rerouting baseline the paper
// compares L-Ob against in Figure 10 (labelled "Rerouting (Ariadne)"):
// instead of continuing to use a compromised link under obfuscation, the
// network disables it and recomputes routes around it, paying extra hops.
//
// Routes are built per destination with a breadth-first search over the
// healthy directed links, preferring the lowest-numbered port on ties: on
// the mesh that is east before west before north before south, so the
// fault-free network reproduces plain XY routing exactly. Like Ariadne, the
// reconfiguration is a full-table rebuild triggered by each newly disabled
// link, and it works unchanged on any Topology.
package reroute

import (
	"fmt"

	"tasp/internal/noc"
)

// Table is a fault-aware routing table: Port[r][d] is the output port
// router r uses toward destination d.
type Table struct {
	Port [][]int
	// Hops[r][d] is the path length from r to d, -1 when unreachable.
	Hops [][]int

	route noc.RouteFunc // the table as a RouteFunc, built with it
}

// Build computes a table for the configured topology avoiding the given
// disabled directed links (by link id). Ties between equal-length paths go
// to the lowest-numbered port, which on the mesh degenerates to XY routing
// (x-dimension first).
func Build(cfg noc.Config, links []noc.LinkInfo, disabled map[int]bool) (*Table, error) {
	return routesOver(cfg, healthyAdj(cfg, links, disabled))
}

// routesOver computes the table of shortest paths over adj[r][port], the
// neighbour router over port (-1 when the port drives no usable link),
// taking the lowest-numbered port among the equally short ways.
func routesOver(cfg noc.Config, adj [][]int) (*Table, error) {
	R := cfg.Routers()
	// pred[to] lists the routers adj links into to: the edges a reverse
	// BFS from a destination walks.
	pred := make([][]int, R)
	for from := range adj {
		for p := 1; p < len(adj[from]); p++ {
			if to := adj[from][p]; to >= 0 {
				pred[to] = append(pred[to], from)
			}
		}
	}

	t := newTable(cfg)
	// One reverse BFS per destination over adj's directed links. Every
	// router enters the queue at most once per destination, so both
	// buffers are sized once and reused.
	dist := make([]int, R)
	queue := make([]int, 0, R)
	for d := 0; d < R; d++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue = append(queue[:0], d)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, from := range pred[cur] {
				if dist[from] == -1 {
					dist[from] = dist[cur] + 1
					queue = append(queue, from)
				}
			}
		}
		for r := 0; r < R; r++ {
			t.Hops[r][d] = dist[r]
			if r == d {
				t.Port[r][d] = noc.PortLocal
				continue
			}
			if dist[r] == -1 {
				return nil, fmt.Errorf("reroute: router %d cannot reach %d with the given faults", r, d)
			}
			// Choose the preferred neighbour strictly closer to d.
			t.Port[r][d] = -1
			for p := 1; p < len(adj[r]); p++ {
				nb := adj[r][p]
				if nb >= 0 && dist[nb] == dist[r]-1 {
					t.Port[r][d] = p
					break
				}
			}
			if t.Port[r][d] == -1 {
				return nil, fmt.Errorf("reroute: no forwarding port at %d toward %d", r, d)
			}
		}
	}
	return t, nil
}

// healthyAdj returns adj[r][port]: the neighbour router over a healthy
// link, or -1 (always -1 at the local port 0).
func healthyAdj(cfg noc.Config, links []noc.LinkInfo, disabled map[int]bool) [][]int {
	topo := cfg.Topology()
	adj := make([][]int, cfg.Routers())
	for r := range adj {
		adj[r] = make([]int, topo.NumPorts(r))
		for p := range adj[r] {
			adj[r][p] = -1
		}
	}
	for _, l := range links {
		if disabled[l.ID] {
			continue
		}
		adj[l.From][l.FromPort] = l.To
	}
	return adj
}

// newTable allocates an R x R table for cfg, each of Port and Hops backed
// by one array.
func newTable(cfg noc.Config) *Table {
	R := cfg.Routers()
	t := &Table{Port: make([][]int, R), Hops: make([][]int, R)}
	port, hops := make([]int, R*R), make([]int, R*R)
	for r := range t.Port {
		t.Port[r] = port[r*R : (r+1)*R : (r+1)*R]
		t.Hops[r] = hops[r*R : (r+1)*R : (r+1)*R]
	}
	t.route = func(router, dst int) int { return t.Port[router][dst] }
	return t
}

// BuildSafe computes a deadlock-free reconfiguration table: spanning-tree
// routing over the surviving topology. A BFS spanning tree is grown from the
// healthiest router and every packet follows the unique tree path to its
// destination — up*/down* routing restricted to tree links, whose channel
// dependency graph is acyclic (all dependencies point rootward, then
// leafward, never back), so wormhole routing cannot deadlock no matter which
// links died. Build's shortest-path tables do not carry that guarantee: away
// from the fault-free case their detours can close a turn cycle, which is
// fine for the paper's oracle Rerouting baseline (reconfiguration happens at
// a quiet boundary) but not for mid-run recovery, where a reconfiguration
// landing mid-burst must never wedge the network it is trying to heal.
//
// Tree links must be healthy in both directions (traffic crosses them both
// up and down); when one-way faults disconnect the bidirectional graph,
// BuildSafe falls back to Build rather than strand reachable routers.
func BuildSafe(cfg noc.Config, links []noc.LinkInfo, disabled map[int]bool) (*Table, error) {
	R := cfg.Routers()
	adj := healthyAdj(cfg, links, disabled)
	// und[r][p] = neighbor over a bidirectionally healthy edge, or -1.
	und := make([][]int, R)
	for r := range und {
		und[r] = make([]int, len(adj[r]))
		for p := range und[r] {
			und[r][p] = -1
			nb := adj[r][p]
			if nb < 0 {
				continue
			}
			for q := 1; q < len(adj[nb]); q++ {
				if adj[nb][q] == r {
					und[r][p] = nb
					break
				}
			}
		}
	}
	// Root at the best-connected router (lowest id on ties) to keep the
	// tree shallow, then grow a BFS tree visiting ports in order so the
	// tree — and therefore the whole table — is deterministic.
	root, best := 0, -1
	for r := 0; r < R; r++ {
		deg := 0
		for p := 1; p < len(und[r]); p++ {
			if und[r][p] >= 0 {
				deg++
			}
		}
		if deg > best {
			root, best = r, deg
		}
	}
	tree := make([][]int, R) // tree[r][p] = neighbor when port p is a tree edge, else -1
	for r := range tree {
		tree[r] = make([]int, len(und[r]))
		for p := range tree[r] {
			tree[r][p] = -1
		}
	}
	seen := make([]bool, R)
	seen[root] = true
	visited := 1
	for queue := []int{root}; len(queue) > 0; {
		cur := queue[0]
		queue = queue[1:]
		for p := 1; p < len(und[cur]); p++ {
			nb := und[cur][p]
			if nb < 0 || seen[nb] {
				continue
			}
			seen[nb] = true
			visited++
			tree[cur][p] = nb
			for q := 1; q < len(und[nb]); q++ {
				if und[nb][q] == cur {
					tree[nb][q] = cur
					break
				}
			}
			queue = append(queue, nb)
		}
	}
	if visited < R {
		return Build(cfg, links, disabled)
	}

	// Paths in a tree are unique, so the shortest path is the tree path.
	return routesOver(cfg, tree)
}

// Route returns the table as a noc.RouteFunc.
func (t *Table) Route() noc.RouteFunc { return t.route }

// Apply disables the links on the network and installs the rebuilt table.
func Apply(n *noc.Network, disabled map[int]bool) (*Table, error) {
	return apply(n, disabled, Build, disableLink)
}

// Install disables the links on the network and installs the table, which
// Build made for the network's configuration and these disabled links:
// Apply without the rebuild, for a caller that keeps the table. It
// allocates nothing.
func (t *Table) Install(n *noc.Network, disabled map[int]bool) {
	install(n, disabled, t, disableLink)
}

func disableLink(n *noc.Network, id int) int {
	n.DisableLink(id)
	return 0
}

// ApplySafe is the mid-run recovery variant of Apply: it installs the
// deadlock-free BuildSafe table, disables links with the reclaiming
// DisableLinkReclaim (purging wormholes cut by the reconfiguration),
// rebuilds the dateline VC classes for the routes actually installed
// (off-minimal detours cross datelines where the constructor's
// minimal-route tables say they never will, re-closing the ring
// dependency cycle the dateline exists to cut), and finishes with a
// ReclaimTruncated sweep that frees the virtual channels wedged by
// tail-swallowing drop trojans — resources a tail can now never release.
// Apply keeps the plain semantics the oracle Rerouting baseline
// (Figure 10) is pinned to.
func ApplySafe(n *noc.Network, disabled map[int]bool) (*Table, error) {
	t, err := apply(n, disabled, BuildSafe, (*noc.Network).DisableLinkReclaim)
	if err != nil {
		return nil, err
	}
	n.ReclassifyVCs()
	n.ReclaimTruncated()
	return t, nil
}

func apply(n *noc.Network, disabled map[int]bool,
	build func(noc.Config, []noc.LinkInfo, map[int]bool) (*Table, error),
	disable func(*noc.Network, int) int) (*Table, error) {
	t, err := build(n.Config(), n.LinkSlice(), disabled)
	if err != nil {
		return nil, err
	}
	install(n, disabled, t, disable)
	return t, nil
}

// install disables the links in link-id order — disabling mutates network
// state (drops committed traffic), so the mutation order must not follow
// map order — and installs the table's routes.
func install(n *noc.Network, disabled map[int]bool, t *Table, disable func(*noc.Network, int) int) {
	for _, l := range n.LinkSlice() {
		if disabled[l.ID] && !n.LinkDisabled(l.ID) {
			disable(n, l.ID)
		}
	}
	n.SetRoute(t.Route())
}

// Reachability tests whether a topology's healthy directed links still
// let every router reach every other — exactly when Build returns a table
// rather than an error — without building one: a forward and a reverse
// breadth-first search from router 0 over flat adjacency arrays, O(R+L)
// per test. Its buffers are built once and reused by every test, so the
// attacker's placement checks each candidate link for the price of two
// searches instead of a full R x R table.
type Reachability struct {
	// out[outAt[r]:outAt[r+1]] are the links leaving router r, in link
	// order; in[inAt[r]:inAt[r+1]] those entering it.
	outAt, inAt []int
	out, in     []arc
	seen        []bool
	queue       []int
}

// arc is one directed link seen from one of its ends: its id and the
// router at its other end.
type arc struct{ link, router int }

// NewReachability prepares reachability tests over the given links of the
// configured topology.
func NewReachability(cfg noc.Config, links []noc.LinkInfo) *Reachability {
	R := cfg.Routers()
	c := &Reachability{
		outAt: make([]int, R+1), inAt: make([]int, R+1),
		out: make([]arc, len(links)), in: make([]arc, len(links)),
		seen: make([]bool, R), queue: make([]int, 0, R),
	}
	for _, l := range links {
		c.outAt[l.From+1]++
		c.inAt[l.To+1]++
	}
	for r := 0; r < R; r++ {
		c.outAt[r+1] += c.outAt[r]
		c.inAt[r+1] += c.inAt[r]
	}
	// Fill each router's run in link order, with the run starts as
	// cursors; the cursors end at the next router's start, which shifting
	// the starts down by one restores.
	for _, l := range links {
		c.out[c.outAt[l.From]] = arc{l.ID, l.To}
		c.outAt[l.From]++
		c.in[c.inAt[l.To]] = arc{l.ID, l.From}
		c.inAt[l.To]++
	}
	copy(c.outAt[1:], c.outAt[:R])
	copy(c.inAt[1:], c.inAt[:R])
	c.outAt[0], c.inAt[0] = 0, 0
	return c
}

// Connected reports whether every router reaches every other over the
// links not marked in disabled (indexed by link id; ids past its end, and
// a nil slice, count as healthy). It allocates nothing.
func (c *Reachability) Connected(disabled []bool) bool {
	return c.reachesAll(c.outAt, c.out, disabled) && c.reachesAll(c.inAt, c.in, disabled)
}

// reachesAll runs a breadth-first search from router 0 over the healthy
// arcs of one direction and reports whether it visits every router.
func (c *Reachability) reachesAll(at []int, arcs []arc, disabled []bool) bool {
	clear(c.seen)
	c.seen[0] = true
	q := append(c.queue[:0], 0)
	for head := 0; head < len(q); head++ {
		r := q[head]
		for _, a := range arcs[at[r]:at[r+1]] {
			if c.seen[a.router] || a.link < len(disabled) && disabled[a.link] {
				continue
			}
			c.seen[a.router] = true
			q = append(q, a.router)
		}
	}
	c.queue = q
	return len(q) == len(c.seen)
}
