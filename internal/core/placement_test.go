package core

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"tasp/internal/noc"
	"tasp/internal/reroute"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// linkLoadsOracle is traffic.LinkLoadsWhere before it walked the network's
// route table, kept as a test oracle: it builds its own table with one
// Route call per pair and its own (router, port) -> link map from the
// topology's link list.
func linkLoadsOracle(m *traffic.Model, cfg noc.Config, keep func(src, dst int) bool) []float64 {
	topo := cfg.Topology()
	R := cfg.Routers()
	tab := make([]uint8, R*R)
	for r := 0; r < R; r++ {
		for d := 0; d < R; d++ {
			tab[r*R+d] = uint8(topo.Route(r, d))
		}
	}
	specs := topo.Links()
	// out[r][port] is the id of the link leaving router r on that port.
	out := make([][]int, R)
	for r := range out {
		out[r] = make([]int, topo.NumPorts(r))
	}
	for id, ls := range specs {
		out[ls.From][ls.FromPort] = id
	}
	loads := make([]float64, len(specs))
	total := 0.0
	for s := 0; s < R; s++ {
		for d := 0; d < R; d++ {
			w := m.Matrix[s][d] * m.Intensity[s]
			if w == 0 || s == d || (keep != nil && !keep(s, d)) {
				continue
			}
			for cur := s; cur != d; {
				id := out[cur][tab[cur*R+d]]
				loads[id] += w
				total += w
				cur = specs[id].To
			}
		}
	}
	if total == 0 {
		return loads
	}
	for id := range loads {
		loads[id] /= total
	}
	return loads
}

// chooseInfectedLinksOracle is the placement loop ChooseInfectedLinks
// replaced, kept as a test oracle: it builds a full reroute table for every
// candidate and skips the candidate when the build fails. skipped reports
// whether it skipped any.
func chooseInfectedLinksOracle(m *traffic.Model, cfg noc.Config, links []noc.LinkInfo, n int, target tasp.Target) (picked []int, skipped bool) {
	loads := linkLoadsOracle(m, cfg, flowMatcher(target))
	type cand struct {
		id   int
		load float64
	}
	cands := make([]cand, 0, len(links))
	for _, l := range links {
		cands = append(cands, cand{l.ID, loads[l.ID]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load > cands[j].load
		}
		return cands[i].id < cands[j].id
	})
	disabled := map[int]bool{}
	for _, c := range cands {
		if len(picked) == n {
			break
		}
		if c.load == 0 {
			break
		}
		disabled[c.id] = true
		if _, err := reroute.Build(cfg, links, disabled); err != nil {
			delete(disabled, c.id)
			skipped = true
			continue
		}
		picked = append(picked, c.id)
	}
	return picked, skipped
}

// TestChooseInfectedLinksMatchesOracle: the reachability-tested placement
// returns the table-building loop's link ids for every benchmark under
// dest, src and vc targets and k = 1..8, on every topology from 2x2 to
// 16x16. The oracle's k-link placement is the first k links of its 8-link
// one (the loop stops at k picks and picks in a fixed order), so one oracle
// run per case covers every k. Some cases must skip a candidate for
// disconnecting the network, so a placement that stopped skipping fails.
func TestChooseInfectedLinksMatchesOracle(t *testing.T) {
	sizes := []int{2, 3, 4, 5, 6, 8, 16}
	if testing.Short() {
		sizes = sizes[:5]
	}
	var skipped atomic.Int64
	t.Cleanup(func() {
		if !t.Failed() && skipped.Load() == 0 {
			t.Error("no case skipped a disconnecting candidate; the connectivity check went untested")
		}
	})
	for _, topo := range noc.Topologies() {
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			for _, side := range sizes {
				skipped.Add(int64(checkPlacement(t, topo, side)))
			}
		})
	}
}

// checkPlacement compares ChooseInfectedLinks with the oracle on one
// side x side platform and returns how many cases skipped a candidate.
func checkPlacement(t *testing.T, topo string, side int) (skipped int) {
	const maxK = 8
	cfg := noc.DefaultConfig()
	cfg.Topo, cfg.Width, cfg.Height = topo, side, side
	if cfg.Validate() != nil {
		return 0
	}
	net, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := net.LinkSlice()
	R := cfg.Routers()
	targets := []tasp.Target{tasp.ForDest(0), tasp.ForSrc(uint8(R / 2)), tasp.ForVC(1)}
	for _, name := range traffic.Benchmarks() {
		m, err := traffic.Benchmark(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			want, skip := chooseInfectedLinksOracle(m, cfg, links, maxK, target)
			if skip {
				skipped++
			}
			for k := 1; k <= maxK; k++ {
				got := ChooseInfectedLinks(m, net, k, target)
				if w := want[:min(k, len(want))]; !slices.Equal(got, w) {
					t.Fatalf("%s on %s %dx%d, target %+v, k=%d: placement %v, oracle %v",
						name, topo, side, side, target, k, got, w)
				}
			}
		}
	}
	return skipped
}
