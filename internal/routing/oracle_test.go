package routing

import (
	"slices"
	"testing"

	"tasp/internal/noc"
)

// appendOracles are the turn models as they were written before they
// returned shared slices: each call appends a fresh candidate slice. Kept
// as test oracles for candidate order.
var appendOracles = map[string]func(noc.Config) noc.AdaptiveRouteFunc{
	"xy": func(cfg noc.Config) noc.AdaptiveRouteFunc {
		base := noc.RouteTable(cfg.Topology())
		return func(router, dst int) []int { return []int{base(router, dst)} }
	},
	"west-first": func(cfg noc.Config) noc.AdaptiveRouteFunc {
		return func(router, dst int) []int {
			dx, dy := delta(cfg, router, dst)
			if dx == 0 && dy == 0 {
				return []int{noc.PortLocal}
			}
			if dx < 0 {
				return []int{noc.PortWest}
			}
			var c []int
			if dx > 0 {
				c = append(c, noc.PortEast)
			}
			if dy > 0 {
				c = append(c, noc.PortNorth)
			}
			if dy < 0 {
				c = append(c, noc.PortSouth)
			}
			return c
		}
	},
	"north-last": func(cfg noc.Config) noc.AdaptiveRouteFunc {
		return func(router, dst int) []int {
			dx, dy := delta(cfg, router, dst)
			if dx == 0 && dy == 0 {
				return []int{noc.PortLocal}
			}
			var c []int
			if dx > 0 {
				c = append(c, noc.PortEast)
			}
			if dx < 0 {
				c = append(c, noc.PortWest)
			}
			if dy < 0 {
				c = append(c, noc.PortSouth)
			}
			if len(c) == 0 {
				return []int{noc.PortNorth}
			}
			return c
		}
	},
	"negative-first": func(cfg noc.Config) noc.AdaptiveRouteFunc {
		return func(router, dst int) []int {
			dx, dy := delta(cfg, router, dst)
			if dx == 0 && dy == 0 {
				return []int{noc.PortLocal}
			}
			var neg []int
			if dx < 0 {
				neg = append(neg, noc.PortWest)
			}
			if dy < 0 {
				neg = append(neg, noc.PortSouth)
			}
			if len(neg) > 0 {
				return neg
			}
			var pos []int
			if dx > 0 {
				pos = append(pos, noc.PortEast)
			}
			if dy > 0 {
				pos = append(pos, noc.PortNorth)
			}
			return pos
		}
	},
	"odd-even": func(cfg noc.Config) noc.AdaptiveRouteFunc {
		return func(router, dst int) []int {
			cx, cy := cfg.XY(router)
			tx, ty := cfg.XY(dst)
			dx, dy := tx-cx, ty-cy
			if dx == 0 && dy == 0 {
				return []int{noc.PortLocal}
			}
			var c []int
			if dx == 0 {
				if dy > 0 {
					return []int{noc.PortNorth}
				}
				return []int{noc.PortSouth}
			}
			if dx > 0 {
				if dy == 0 {
					return []int{noc.PortEast}
				}
				if cx%2 == 1 {
					if dy > 0 {
						c = append(c, noc.PortNorth)
					} else {
						c = append(c, noc.PortSouth)
					}
				}
				if dx > 1 || tx%2 == 1 {
					c = append(c, noc.PortEast)
				}
				if len(c) == 0 {
					c = append(c, noc.PortEast)
				}
				return c
			}
			if dy != 0 && cx%2 == 0 {
				if dy > 0 {
					c = append(c, noc.PortNorth)
				} else {
					c = append(c, noc.PortSouth)
				}
			}
			c = append(c, noc.PortWest)
			return c
		}
	},
}

// TestCandidatesMatchAppendOracles: every algorithm offers the same
// candidates in the same order as its appending form, for every router
// and destination of every topology it is certified on, from 2x2 to 9x7,
// and a route computation allocates nothing.
func TestCandidatesMatchAppendOracles(t *testing.T) {
	for _, topo := range noc.Topologies() {
		for _, dim := range [][2]int{{2, 2}, {4, 4}, {5, 3}, {8, 8}, {9, 7}} {
			cfg := noc.DefaultConfig()
			cfg.Topo, cfg.Width, cfg.Height = topo, dim[0], dim[1]
			if cfg.Validate() != nil {
				continue
			}
			algs := Algorithms(cfg)
			for _, name := range []string{"xy", "west-first", "north-last", "negative-first", "odd-even"} {
				fn, ok := algs[name]
				if !ok {
					continue // not certified on this topology
				}
				oracle := appendOracles[name](cfg)
				R := cfg.Routers()
				for r := 0; r < R; r++ {
					for d := 0; d < R; d++ {
						if got, want := fn(r, d), oracle(r, d); !slices.Equal(got, want) {
							t.Fatalf("%s on %s %dx%d, %d->%d: candidates %v, oracle %v",
								name, topo, dim[0], dim[1], r, d, got, want)
						}
					}
				}
				if avg := testing.AllocsPerRun(10, func() {
					for d := 0; d < R; d++ {
						fn(0, d)
						fn(R-1, d)
					}
				}); avg != 0 {
					t.Errorf("%s on %s %dx%d: %.1f allocations per sweep, want 0", name, topo, dim[0], dim[1], avg)
				}
			}
		}
	}
}
