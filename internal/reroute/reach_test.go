package reroute

import (
	"fmt"
	"testing"

	"tasp/internal/noc"
	"tasp/internal/xrand"
)

// reachCase lowers fuzz inputs to a valid platform and a disabled-link set:
// topology by index, each side in 2..maxSide, and link id i disabled when
// bit i of mask is set. ok is false when the platform is invalid (a ring of
// fewer than 3 routers).
func reachCase(topo, w, h uint8, mask []byte) (cfg noc.Config, links []noc.LinkInfo, disabled []bool, ok bool) {
	const maxSide = 8
	names := noc.Topologies()
	cfg = noc.DefaultConfig()
	cfg.Topo = names[int(topo)%len(names)]
	cfg.Width, cfg.Height = 2+int(w)%(maxSide-1), 2+int(h)%(maxSide-1)
	if cfg.Validate() != nil {
		return cfg, nil, nil, false
	}
	n, err := noc.New(cfg)
	if err != nil {
		return cfg, nil, nil, false
	}
	links = n.LinkSlice()
	disabled = make([]bool, len(links))
	for i := range disabled {
		disabled[i] = i/8 < len(mask) && mask[i/8]&(1<<uint(i%8)) != 0
	}
	return cfg, links, disabled, true
}

// checkReach asserts that Reachability.Connected answers exactly whether
// Build returns a table for the same disabled links.
func checkReach(t *testing.T, cfg noc.Config, links []noc.LinkInfo, disabled []bool) {
	t.Helper()
	set := map[int]bool{}
	for id, off := range disabled {
		if off {
			set[id] = true
		}
	}
	_, err := Build(cfg, links, set)
	if got := NewReachability(cfg, links).Connected(disabled); got != (err == nil) {
		t.Fatalf("%s %dx%d disabled %v: Connected = %v, Build error %v",
			cfg.Topo, cfg.Width, cfg.Height, set, got, err)
	}
}

// maskOf returns the mask bytes disabling the links between the given
// (from, to) router pairs on the reachCase platform of the same inputs.
func maskOf(t testing.TB, topo, w, h uint8, pairs ...[2]int) []byte {
	_, links, _, ok := reachCase(topo, w, h, nil)
	if !ok {
		t.Fatalf("invalid seed platform %d %d %d", topo, w, h)
	}
	mask := make([]byte, (len(links)+7)/8)
	for _, p := range pairs {
		for _, l := range links {
			if l.From == p[0] && l.To == p[1] {
				mask[l.ID/8] |= 1 << uint(l.ID%8)
			}
		}
	}
	return mask
}

// FuzzReachability checks the placement's reachability test against
// Build over random (topology, size, disabled-link set) inputs: it must say
// connected exactly when Build routes around the disabled links. The seeds
// are a ring cut in two places (two arcs), a mesh corner whose two
// outgoing links are disabled (it reaches nothing), one link down on a
// torus (still connected), and no fault.
func FuzzReachability(f *testing.F) {
	const mesh, torus, ring = 0, 1, 2
	// Topology indices follow noc.Topologies().
	f.Add(uint8(ring), uint8(6), uint8(0), maskOf(f, ring, 6, 0, [2]int{1, 2}, [2]int{2, 1}, [2]int{5, 6}, [2]int{6, 5}))
	f.Add(uint8(mesh), uint8(2), uint8(2), maskOf(f, mesh, 2, 2, [2]int{0, 1}, [2]int{0, 4}))
	f.Add(uint8(torus), uint8(3), uint8(3), maskOf(f, torus, 3, 3, [2]int{0, 1}))
	f.Add(uint8(mesh), uint8(6), uint8(6), []byte(nil))
	f.Fuzz(func(t *testing.T, topo, w, h uint8, mask []byte) {
		cfg, links, disabled, ok := reachCase(topo, w, h, mask)
		if !ok {
			return
		}
		checkReach(t, cfg, links, disabled)
	})
}

// TestReachabilityMatchesBuild sweeps every topology from 2x2 to 8x8 over
// random disabled-link sets from one link up to a third of the links, and
// requires both outcomes to occur.
func TestReachabilityMatchesBuild(t *testing.T) {
	rng := xrand.New(25)
	seen := map[bool]int{}
	for topo := uint8(0); int(topo) < len(noc.Topologies()); topo++ {
		for w := uint8(0); w < 7; w++ {
			for h := uint8(0); h < 7; h++ {
				cfg, links, _, ok := reachCase(topo, w, h, nil)
				if !ok {
					continue
				}
				reach := NewReachability(cfg, links)
				for trial := 0; trial < 6; trial++ {
					disabled := make([]bool, len(links))
					for k := 1 + rng.Intn(max(len(links)/3, 1)); k > 0; k-- {
						disabled[rng.Intn(len(links))] = true
					}
					checkReach(t, cfg, links, disabled)
					seen[reach.Connected(disabled)]++
				}
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("outcomes %v; want both connected and disconnected cases", seen)
	}
}

// TestReachabilitySeeds pins the fuzz seeds' expected answers, so a seed
// that stops testing what its comment says fails here.
func TestReachabilitySeeds(t *testing.T) {
	const mesh, torus, ring = 0, 1, 2
	for _, tc := range []struct {
		topo, w, h uint8
		pairs      [][2]int
		want       bool
	}{
		{ring, 6, 0, [][2]int{{1, 2}, {2, 1}, {5, 6}, {6, 5}}, false},
		{ring, 6, 0, [][2]int{{1, 2}, {5, 6}}, true}, // one direction cut twice: the other way round remains
		{mesh, 2, 2, [][2]int{{0, 1}, {0, 4}}, false},
		{torus, 3, 3, [][2]int{{0, 1}}, true},
	} {
		cfg, links, disabled, _ := reachCase(tc.topo, tc.w, tc.h, maskOf(t, tc.topo, tc.w, tc.h, tc.pairs...))
		n := 0
		for _, off := range disabled {
			if off {
				n++
			}
		}
		where := fmt.Sprintf("%s %dx%d cut %v", cfg.Topo, cfg.Width, cfg.Height, tc.pairs)
		if n != len(tc.pairs) {
			t.Fatalf("%s: %d links disabled, want %d", where, n, len(tc.pairs))
		}
		if got := NewReachability(cfg, links).Connected(disabled); got != tc.want {
			t.Errorf("%s: Connected = %v, want %v", where, got, tc.want)
		}
		checkReach(t, cfg, links, disabled)
	}
}
