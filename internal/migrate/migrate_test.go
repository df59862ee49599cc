package migrate

import (
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
)

func TestIdentityPlacement(t *testing.T) {
	m := New(noc.DefaultConfig())
	for r := 0; r < 16; r++ {
		if m.PhysRouter(r) != r || m.LogRouter(r) != r {
			t.Fatalf("identity broken at %d", r)
		}
	}
	if m.PhysCore(37) != 37 {
		t.Fatalf("core identity broken: %d", m.PhysCore(37))
	}
}

func TestEvacuateSwaps(t *testing.T) {
	m := New(noc.DefaultConfig())
	m.Evacuate(0, 15, 100)
	if m.PhysRouter(0) != 15 || m.PhysRouter(15) != 0 {
		t.Fatalf("swap broken: %d %d", m.PhysRouter(0), m.PhysRouter(15))
	}
	if m.LogRouter(15) != 0 || m.LogRouter(0) != 15 {
		t.Fatal("inverse map broken")
	}
	if m.PhysCore(1) != 61 { // logical core 1 lives at router 15 now
		t.Fatalf("core remap: %d", m.PhysCore(1))
	}
	if m.Moves != 1 {
		t.Fatalf("moves: %d", m.Moves)
	}
	// Both ends pause for the state transfer.
	if !m.Paused(150, 0) || !m.Paused(150, 15) {
		t.Fatal("regions not paused during transfer")
	}
	if m.Paused(301, 0) || m.Paused(301, 15) {
		t.Fatal("pause did not expire")
	}
	// Evacuating to the current host is a no-op.
	m.Evacuate(0, 15, 400)
	if m.Moves != 1 || m.PhysRouter(0) != 15 {
		t.Fatalf("re-evacuation misbehaved: moves=%d phys=%d", m.Moves, m.PhysRouter(0))
	}
}

func TestEvacuateToSameHostIsNoop(t *testing.T) {
	m := New(noc.DefaultConfig())
	m.Evacuate(3, 3, 10)
	if m.Moves != 0 || m.PhysRouter(3) != 3 {
		t.Fatal("same-host evacuation mutated state")
	}
}

func TestRewriteFollowsPlacement(t *testing.T) {
	m := New(noc.DefaultConfig())
	m.Evacuate(0, 12, 0)
	p := &flit.Packet{Hdr: flit.Header{DstR: 0}}
	m.Rewrite(p)
	if p.Hdr.DstR != 12 {
		t.Fatalf("dst not rewritten: %d", p.Hdr.DstR)
	}
	q := &flit.Packet{Hdr: flit.Header{DstR: 5}}
	m.Rewrite(q)
	if q.Hdr.DstR != 5 {
		t.Fatal("unrelated destination rewritten")
	}
}

func TestPlanTargetAvoidsInfectedRegion(t *testing.T) {
	cfg := noc.DefaultConfig()
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Infect both ingress links of router 0 (ids known from wiring: find
	// them properly).
	var infected []int
	for _, l := range n.Links() {
		if l.To == 0 {
			infected = append(infected, l.ID)
		}
	}
	target := PlanTarget(cfg, n.Links(), infected, 0)
	// The farthest router from {0, 1, 4} is 15.
	if target != 15 {
		t.Fatalf("evacuation target %d, want 15", target)
	}
}

func TestPlanTargetNeverPicksVictim(t *testing.T) {
	cfg := noc.DefaultConfig()
	n, _ := noc.New(cfg)
	if got := PlanTarget(cfg, n.Links(), nil, 7); got == 7 {
		t.Fatal("victim chosen as its own donor")
	}
}

// TestPlanTargetUsesHopDistance infects link r0->r1 with the victim on
// router 0. The donor is the router farthest from both link ends by the
// topology's own hop distance: on the 16-router ring router 9, 7 hops from
// the link, where grid coordinates would pick router 15, 1 hop from it; on
// the 4x4 torus router 11, 3 hops away, where the grid would pick 15, 2 hops
// away across the wraparound.
func TestPlanTargetUsesHopDistance(t *testing.T) {
	for _, tc := range []struct {
		topo      string
		want, hop int
	}{{"ring", 9, 7}, {"torus", 11, 3}, {"mesh", 15, 5}} {
		cfg := noc.DefaultConfig()
		cfg.Topo = tc.topo
		n, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		links := n.LinkSlice()
		if l := links[0]; l.From != 0 || l.To != 1 {
			t.Fatalf("%s: link 0 is %s, want r0 -> r1", tc.topo, l)
		}
		got := PlanTarget(cfg, links, []int{0}, 0)
		hop := min(cfg.Topology().HopDist(0, got), cfg.Topology().HopDist(1, got))
		if got != tc.want || hop != tc.hop {
			t.Errorf("%s: donor %d, %d hops from the link; want %d, %d hops", tc.topo, got, hop, tc.want, tc.hop)
		}
	}
}

// planTargetManhattan is PlanTarget as it was before it asked the topology
// for hop distances, kept as a test oracle: Manhattan distance over the
// grid coordinates, which is the hop distance on the mesh alone.
func planTargetManhattan(cfg noc.Config, links []noc.LinkInfo, infected []int, victimPhys int) int {
	hot := map[int]bool{}
	for _, id := range infected {
		hot[links[id].From] = true
		hot[links[id].To] = true
	}
	best, bestDist := victimPhys, -1
	for r := 0; r < cfg.Routers(); r++ {
		if r == victimPhys {
			continue
		}
		near := 1 << 30
		for h := range hot { //nocvet:orderfree commutative min over the hot set
			hx, hy := cfg.XY(h)
			rx, ry := cfg.XY(r)
			near = min(near, max(hx-rx, rx-hx)+max(hy-ry, ry-hy))
		}
		if near > bestDist || (near == bestDist && r > best) {
			best, bestDist = r, near
		}
	}
	return best
}

// TestPlanTargetMatchesManhattanOnMesh: on the 4x4 mesh every (infected
// link, victim) plan is the Manhattan oracle's, so the migration study's
// output does not move.
func TestPlanTargetMatchesManhattanOnMesh(t *testing.T) {
	cfg := noc.DefaultConfig()
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := n.LinkSlice()
	plans := 0
	for _, l := range links {
		for v := 0; v < cfg.Routers(); v++ {
			got, want := PlanTarget(cfg, links, []int{l.ID}, v), planTargetManhattan(cfg, links, []int{l.ID}, v)
			if got != want {
				t.Fatalf("link %s, victim %d: donor %d, oracle %d", l, v, got, want)
			}
			plans++
		}
	}
	if plans != 768 {
		t.Fatalf("%d plans compared, want 768", plans)
	}
}

func TestStateTransferPackets(t *testing.T) {
	m := New(noc.DefaultConfig())
	ps := m.StateTransfer(0, 15, 8)
	if len(ps) != 8 {
		t.Fatalf("packets: %d", len(ps))
	}
	for i, p := range ps {
		if p.Hdr.DstR != 15 {
			t.Fatalf("packet %d aimed at %d", i, p.Hdr.DstR)
		}
		if p.NumFlits() != 5 {
			t.Fatalf("packet %d has %d flits, want 5", i, p.NumFlits())
		}
	}
}
