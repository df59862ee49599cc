// Package routing provides the adaptive routing algorithms the paper
// compares XY routing against under DoS load (Section III-A: "In a
// flood-based DoS attack, x-y routing performs better than multiple
// adaptive algorithms when the injection rate is less than 0.65").
//
// Each algorithm is a turn-model candidate generator: it returns the set of
// minimal output ports a packet may take at a router such that the global
// channel-dependency graph stays acyclic (Glass & Ni's turn models, plus
// Chiu's odd-even rule). The simulator picks the least congested candidate
// at route-computation time.
//
// Deadlock-freedom proofs are topology-specific: the turn models argue
// acyclicity over the wrap-free mesh channel-dependency graph and say
// nothing about torus or ring wraparound links (those substrates get
// deadlock freedom from dateline VC classes under the default deterministic
// route instead). Each algorithm therefore declares the topologies its
// proof covers, and Algorithms only offers an algorithm on a substrate it
// is certified for.
package routing

import "tasp/internal/noc"

// validOn maps each algorithm name to the topologies its deadlock-freedom
// argument covers. "xy" is the topology's own default deterministic route,
// certified everywhere; the mesh turn models assume no wraparound channels.
var validOn = map[string][]string{
	"xy":             {"mesh", "torus", "ring"},
	"west-first":     {"mesh"},
	"north-last":     {"mesh"},
	"negative-first": {"mesh"},
	"odd-even":       {"mesh"},
}

// ValidOn reports whether the named algorithm is certified deadlock-free on
// the named topology.
func ValidOn(algo, topo string) bool {
	for _, t := range validOn[algo] {
		if t == topo {
			return true
		}
	}
	return false
}

// delta returns the signed x and y displacement toward the destination.
func delta(cfg noc.Config, router, dst int) (dx, dy int) {
	cx, cy := cfg.XY(router)
	tx, ty := cfg.XY(dst)
	return tx - cx, ty - cy
}

// shared[a][b] is the candidate list (a) when b == a, else (a, b). Every
// algorithm returns one of these slices, built once for the package, so a
// route computation allocates nothing and the functions are safe to share
// between networks stepping concurrently. Callers must treat a returned
// candidate slice as read-only.
var shared = func() (t [noc.MaxPorts][noc.MaxPorts][]int) {
	for a := range t {
		for b := range t[a] {
			if a == b {
				t[a][b] = []int{a}
			} else {
				t[a][b] = []int{a, b}
			}
		}
	}
	return t
}()

// cands collects up to two candidate ports in order; every algorithm
// below offers at most two.
type cands struct {
	n int
	p [2]int
}

func (c cands) add(port int) cands {
	c.p[c.n] = port
	c.n++
	return c
}

// list returns the shared slice holding the collected ports.
func (c cands) list() []int {
	switch c.n {
	case 0:
		return nil
	case 1:
		return shared[c.p[0]][c.p[0]]
	}
	return shared[c.p[0]][c.p[1]]
}

// one returns the shared single-candidate list (port).
func one(port int) []int { return shared[port][port] }

// XY returns the topology's default deterministic route (dimension-order on
// mesh and torus, shortest-direction on ring) as a (single-candidate)
// adaptive function, for uniform comparisons.
func XY(cfg noc.Config) noc.AdaptiveRouteFunc {
	base := noc.RouteTable(cfg.Topology())
	return func(router, dst int) []int {
		return one(base(router, dst))
	}
}

// WestFirst implements the west-first turn model: all westward hops happen
// first; once a packet moves east/north/south it may never turn west again.
// Minimal version: if the destination is west, the only candidate is west;
// otherwise every productive non-west direction is a candidate.
func WestFirst(cfg noc.Config) noc.AdaptiveRouteFunc {
	return func(router, dst int) []int {
		dx, dy := delta(cfg, router, dst)
		if dx == 0 && dy == 0 {
			return one(noc.PortLocal)
		}
		if dx < 0 {
			return one(noc.PortWest)
		}
		var c cands
		if dx > 0 {
			c = c.add(noc.PortEast)
		}
		if dy > 0 {
			c = c.add(noc.PortNorth)
		}
		if dy < 0 {
			c = c.add(noc.PortSouth)
		}
		return c.list()
	}
}

// NorthLast implements the north-last turn model: a packet may turn into
// the north direction only when north is the sole remaining productive
// move (no turns out of north are ever needed).
func NorthLast(cfg noc.Config) noc.AdaptiveRouteFunc {
	return func(router, dst int) []int {
		dx, dy := delta(cfg, router, dst)
		if dx == 0 && dy == 0 {
			return one(noc.PortLocal)
		}
		var c cands
		if dx > 0 {
			c = c.add(noc.PortEast)
		}
		if dx < 0 {
			c = c.add(noc.PortWest)
		}
		if dy < 0 {
			c = c.add(noc.PortSouth)
		}
		if c.n == 0 {
			return one(noc.PortNorth) // north only as the last resort
		}
		return c.list()
	}
}

// NegativeFirst implements the negative-first turn model: all hops in the
// negative directions (west, south) happen before any positive hop.
func NegativeFirst(cfg noc.Config) noc.AdaptiveRouteFunc {
	return func(router, dst int) []int {
		dx, dy := delta(cfg, router, dst)
		if dx == 0 && dy == 0 {
			return one(noc.PortLocal)
		}
		var neg cands
		if dx < 0 {
			neg = neg.add(noc.PortWest)
		}
		if dy < 0 {
			neg = neg.add(noc.PortSouth)
		}
		if neg.n > 0 {
			return neg.list()
		}
		var pos cands
		if dx > 0 {
			pos = pos.add(noc.PortEast)
		}
		if dy > 0 {
			pos = pos.add(noc.PortNorth)
		}
		return pos.list()
	}
}

// OddEven implements Chiu's odd-even turn model (minimal version): in even
// columns packets may not turn from east to north/south; in odd columns
// they may not turn from north/south to west. The resulting rule set below
// is the standard minimal formulation.
func OddEven(cfg noc.Config) noc.AdaptiveRouteFunc {
	return func(router, dst int) []int {
		cx, cy := cfg.XY(router)
		tx, ty := cfg.XY(dst)
		dx, dy := tx-cx, ty-cy
		if dx == 0 && dy == 0 {
			return one(noc.PortLocal)
		}
		var c cands
		if dx == 0 { // same column: go vertically
			if dy > 0 {
				return one(noc.PortNorth)
			}
			return one(noc.PortSouth)
		}
		if dx > 0 { // eastbound
			if dy == 0 {
				return one(noc.PortEast)
			}
			// EN/ES turns are allowed only in odd columns.
			if cx%2 == 1 {
				if dy > 0 {
					c = c.add(noc.PortNorth)
				} else {
					c = c.add(noc.PortSouth)
				}
			}
			// Continuing east is safe unless the next column is the (even)
			// destination column, where the vertical turn would be
			// forbidden — then the turn must happen here.
			if dx > 1 || tx%2 == 1 {
				c = c.add(noc.PortEast)
			}
			if c.n == 0 {
				// Trapped only if cx is even and tx=cx+1 is even, which
				// cannot happen (adjacent columns differ in parity); kept
				// as a defensive fallback.
				c = c.add(noc.PortEast)
			}
			return c.list()
		}
		// Westbound: NW/SW turns are forbidden in odd columns, so vertical
		// movement must finish in even columns.
		if dy != 0 && cx%2 == 0 {
			if dy > 0 {
				c = c.add(noc.PortNorth)
			} else {
				c = c.add(noc.PortSouth)
			}
		}
		c = c.add(noc.PortWest)
		return c.list()
	}
}

// Algorithms lists the adaptive algorithms certified deadlock-free on the
// configuration's topology, by name. On the mesh that is all five; torus
// and ring configurations only get the default deterministic route.
func Algorithms(cfg noc.Config) map[string]noc.AdaptiveRouteFunc {
	all := map[string]func(noc.Config) noc.AdaptiveRouteFunc{
		"xy":             XY,
		"west-first":     WestFirst,
		"north-last":     NorthLast,
		"negative-first": NegativeFirst,
		"odd-even":       OddEven,
	}
	out := map[string]noc.AdaptiveRouteFunc{}
	for name, mk := range all { //nocvet:orderfree builds a map keyed by the same name
		if ValidOn(name, cfg.TopoName()) {
			out[name] = mk(cfg)
		}
	}
	return out
}
