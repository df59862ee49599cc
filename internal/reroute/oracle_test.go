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

	t := &Table{cfg: cfg, Port: make([][]int, R), Hops: make([][]int, R)}
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
