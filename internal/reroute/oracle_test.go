package reroute

import (
	"fmt"
	"testing"

	"tasp/internal/noc"
	"tasp/internal/xrand"
)

// buildOracle is the straightforward form of Build kept as a test oracle:
// for each destination, a reverse BFS that finds a dequeued router's
// predecessors by scanning every router's ports, with fresh buffers per
// destination.
func buildOracle(cfg noc.Config, links []noc.LinkInfo, disabled map[int]bool) (*Table, error) {
	topo := cfg.Topology()
	R := cfg.Routers()
	adj := make([][]int, R)
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

	t := &Table{Port: make([][]int, R), Hops: make([][]int, R)}
	for r := range t.Port {
		t.Port[r] = make([]int, R)
		t.Hops[r] = make([]int, R)
	}
	for d := 0; d < R; d++ {
		dist := make([]int, R)
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue := []int{d}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for from := 0; from < R; from++ {
				if dist[from] != -1 {
					continue
				}
				for p := 1; p < len(adj[from]); p++ {
					if adj[from][p] == cur {
						dist[from] = dist[cur] + 1
						queue = append(queue, from)
						break
					}
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

// TestBuildMatchesOracle compares Build's tables and error strings with the
// oracle's on every topology from 2x2 to 8x8, over random disabled-link
// sets from a single link up to a third of the links (many of which
// disconnect the network, exercising the error path).
func TestBuildMatchesOracle(t *testing.T) {
	rng := xrand.New(15)
	compared, failed := 0, 0
	for _, topo := range noc.Topologies() {
		for w := 2; w <= 8; w++ {
			for h := 2; h <= 8; h++ {
				cfg := noc.DefaultConfig()
				cfg.Topo, cfg.Width, cfg.Height = topo, w, h
				if cfg.Validate() != nil {
					continue
				}
				n, err := noc.New(cfg)
				if err != nil {
					t.Fatalf("%s %dx%d: %v", topo, w, h, err)
				}
				links := n.LinkSlice()
				for trial := 0; trial < 6; trial++ {
					disabled := map[int]bool{}
					if trial > 0 {
						for k := 1 + rng.Intn(max(len(links)/3, 1)); k > 0; k-- {
							disabled[links[rng.Intn(len(links))].ID] = true
						}
					}
					got, gotErr := Build(cfg, links, disabled)
					want, wantErr := buildOracle(cfg, links, disabled)
					compared++
					where := fmt.Sprintf("%s %dx%d disabled %v", topo, w, h, disabled)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, oracle %v", where, gotErr, wantErr)
					}
					if wantErr != nil {
						failed++
						continue
					}
					if fmt.Sprint(got.Port) != fmt.Sprint(want.Port) || fmt.Sprint(got.Hops) != fmt.Sprint(want.Hops) {
						t.Fatalf("%s: tables differ from the oracle", where)
					}
				}
			}
		}
	}
	if failed == 0 || failed == compared {
		t.Fatalf("%d of %d cases disconnected; want both outcomes covered", failed, compared)
	}
}

// buildSafeOracle is BuildSafe as it was before it routed over its
// spanning tree with Build's search, kept as a test oracle: one forward BFS
// per destination over the tree edges, with fresh buffers per destination.
func buildSafeOracle(cfg noc.Config, links []noc.LinkInfo, disabled map[int]bool) (*Table, error) {
	R := cfg.Routers()
	adj := healthyAdj(cfg, links, disabled)
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
	tree := make([][]int, R)
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

	t := newTable(cfg)
	for d := 0; d < R; d++ {
		dist := make([]int, R)
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		for queue := []int{d}; len(queue) > 0; {
			cur := queue[0]
			queue = queue[1:]
			for p := 1; p < len(tree[cur]); p++ {
				if nb := tree[cur][p]; nb >= 0 && dist[nb] == -1 {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		for r := 0; r < R; r++ {
			t.Hops[r][d] = dist[r]
			if r == d {
				t.Port[r][d] = noc.PortLocal
				continue
			}
			t.Port[r][d] = -1
			for p := 1; p < len(tree[r]); p++ {
				if nb := tree[r][p]; nb >= 0 && dist[nb] == dist[r]-1 {
					t.Port[r][d] = p
					break
				}
			}
			if t.Port[r][d] == -1 {
				return nil, fmt.Errorf("reroute: no tree port at %d toward %d", r, d)
			}
		}
	}
	return t, nil
}

// TestBuildSafeMatchesOracle compares BuildSafe's tables and errors with
// the oracle's on every topology from 2x2 to 8x8, over random disabled-link
// sets from a single link up to a third of the links: spanning trees, the
// fallback to Build, and its disconnection errors.
func TestBuildSafeMatchesOracle(t *testing.T) {
	rng := xrand.New(28)
	tables := 0
	for _, topo := range noc.Topologies() {
		for w := 2; w <= 8; w++ {
			for h := 2; h <= 8; h++ {
				cfg := noc.DefaultConfig()
				cfg.Topo, cfg.Width, cfg.Height = topo, w, h
				n, err := noc.New(cfg)
				if err != nil {
					t.Fatalf("%s %dx%d: %v", topo, w, h, err)
				}
				links := n.LinkSlice()
				for trial := 0; trial < 6; trial++ {
					disabled := map[int]bool{}
					if trial > 0 {
						for k := 1 + rng.Intn(max(len(links)/3, 1)); k > 0; k-- {
							disabled[links[rng.Intn(len(links))].ID] = true
						}
					}
					got, gotErr := BuildSafe(cfg, links, disabled)
					want, wantErr := buildSafeOracle(cfg, links, disabled)
					where := fmt.Sprintf("%s %dx%d disabled %v", topo, w, h, disabled)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, oracle %v", where, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					if fmt.Sprint(got.Port) != fmt.Sprint(want.Port) || fmt.Sprint(got.Hops) != fmt.Sprint(want.Hops) {
						t.Fatalf("%s: tables differ from the oracle", where)
					}
					tables++
				}
			}
		}
	}
	if tables == 0 {
		t.Fatal("no table compared")
	}
	t.Logf("%d tables identical", tables)
}
