package reroute

import (
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
)

func net(t *testing.T) *noc.Network {
	t.Helper()
	n, err := noc.New(noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func linkID(n *noc.Network, from, to int) int {
	for _, l := range n.Links() {
		if l.From == from && l.To == to {
			return l.ID
		}
	}
	return -1
}

func TestHealthyTableEqualsXY(t *testing.T) {
	n := net(t)
	tbl, err := Build(n.Config(), n.Links(), nil)
	if err != nil {
		t.Fatal(err)
	}
	xy := n.Config().Topology().Route
	for r := 0; r < 16; r++ {
		for d := 0; d < 16; d++ {
			if got, want := tbl.Port[r][d], xy(r, d); got != want {
				t.Fatalf("route %d->%d: table %s, xy %s", r, d, noc.PortName(got), noc.PortName(want))
			}
		}
	}
	if tbl.ExtraHops() != 0 {
		t.Fatalf("healthy table pays %d extra hops", tbl.ExtraHops())
	}
}

func TestDetourAroundOneLink(t *testing.T) {
	n := net(t)
	disabled := map[int]bool{linkID(n, 0, 1): true}
	tbl, err := Build(n.Config(), n.Links(), disabled)
	if err != nil {
		t.Fatal(err)
	}
	// 0 -> 1 must avoid the dead link and pay exactly 2 extra hops.
	if tbl.Port[0][1] == noc.PortEast {
		t.Fatal("route still uses the disabled link")
	}
	if tbl.Hops[0][1] != 3 {
		t.Fatalf("0->1 detour length %d, want 3", tbl.Hops[0][1])
	}
	if tbl.ExtraHops() == 0 {
		t.Fatal("no extra hops recorded for the detour")
	}
	// Reverse direction is untouched.
	if tbl.Hops[1][0] != 1 {
		t.Fatalf("1->0 should be direct, got %d hops", tbl.Hops[1][0])
	}
}

func TestHopsMatchShortestPaths(t *testing.T) {
	n := net(t)
	disabled := map[int]bool{
		linkID(n, 0, 1): true,
		linkID(n, 5, 6): true,
		linkID(n, 9, 8): true,
	}
	tbl, err := Build(n.Config(), n.Links(), disabled)
	if err != nil {
		t.Fatal(err)
	}
	// Every routed next hop must strictly decrease the distance.
	cfg := n.Config()
	adj := map[[2]int]int{} // (router, port) -> neighbor
	for _, l := range n.Links() {
		if !disabled[l.ID] {
			adj[[2]int{l.From, l.FromPort}] = l.To
		}
	}
	for r := 0; r < cfg.Routers(); r++ {
		for d := 0; d < cfg.Routers(); d++ {
			if r == d {
				continue
			}
			nb, ok := adj[[2]int{r, tbl.Port[r][d]}]
			if !ok {
				t.Fatalf("%d->%d routes into missing/disabled port", r, d)
			}
			if tbl.Hops[nb][d] != tbl.Hops[r][d]-1 {
				t.Fatalf("%d->%d via %d does not shorten: %d -> %d",
					r, d, nb, tbl.Hops[r][d], tbl.Hops[nb][d])
			}
		}
	}
}

func TestDisconnectionRejected(t *testing.T) {
	n := net(t)
	// Cut both links into router 0 and both out: 0 is unreachable.
	disabled := map[int]bool{
		linkID(n, 1, 0): true,
		linkID(n, 4, 0): true,
	}
	if _, err := Build(n.Config(), n.Links(), disabled); err == nil {
		t.Fatal("disconnected destination accepted")
	}
}

func TestApplyDeliversAroundFault(t *testing.T) {
	n := net(t)
	id := linkID(n, 0, 1)
	if _, err := Apply(n, map[int]bool{id: true}); err != nil {
		t.Fatal(err)
	}
	if !n.LinkDisabled(id) {
		t.Fatal("Apply did not disable the link")
	}
	p := &flit.Packet{Hdr: flit.Header{DstR: 1}}
	if !n.Inject(0, p) {
		t.Fatal("inject failed")
	}
	n.Run(300)
	if n.Counters.DeliveredPackets != 1 {
		t.Fatal("packet not delivered around the disabled link")
	}
}

// TestRoutedTrafficAvoidsAllDisabled floods a rerouted network and checks
// nothing is ever sent on the dead links.
func TestRoutedTrafficAvoidsAllDisabled(t *testing.T) {
	n := net(t)
	dead := map[int]bool{
		linkID(n, 0, 1):  true,
		linkID(n, 6, 10): true,
	}
	if _, err := Apply(n, dead); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 64; core += 3 {
		p := &flit.Packet{Hdr: flit.Header{VC: uint8(core % 4), DstR: uint8((core + 9) % 16)}}
		n.Inject(core, p)
	}
	n.Run(2000)
	for id := range dead {
		if got := n.LinkOutput(id).FlitsSent; got != 0 {
			t.Fatalf("disabled link %d carried %d flits", id, got)
		}
	}
	if n.Counters.DeliveredPackets == 0 {
		t.Fatal("nothing delivered on the rerouted network")
	}
}

// ringNet builds a 16-router ring network for the BuildSafe/ApplySafe
// tests: the substrate whose fallback reconfiguration exercises both the
// disconnected-undirected-graph path and the dateline reclassification.
func ringNet(t *testing.T) *noc.Network {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Topo = "ring"
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBuildSafeRoutesOnSpanningTree checks the deadlock-freedom structure
// of the safe table: with links disabled, every pair still routes, and the
// set of undirected edges the whole table uses forms a tree (at most R-1
// distinct edges, the up*/down* acyclicity argument's precondition).
func TestBuildSafeRoutesOnSpanningTree(t *testing.T) {
	n := net(t)
	dead := map[int]bool{
		linkID(n, 0, 1):  true,
		linkID(n, 6, 10): true,
	}
	tbl, err := BuildSafe(n.Config(), n.Links(), dead)
	if err != nil {
		t.Fatal(err)
	}
	edges := map[[2]int]bool{}
	for r := 0; r < 16; r++ {
		for d := 0; d < 16; d++ {
			if r == d {
				continue
			}
			if tbl.Hops[r][d] < 0 {
				t.Fatalf("%d->%d unreachable", r, d)
			}
			// Walk the path, collecting undirected edges.
			cur := r
			for steps := 0; cur != d; steps++ {
				if steps > 64 {
					t.Fatalf("%d->%d: path does not terminate", r, d)
				}
				next := -1
				for _, l := range n.Links() {
					if l.From == cur && l.FromPort == tbl.Port[cur][d] {
						next = l.To
						break
					}
				}
				if next < 0 {
					t.Fatalf("%d->%d: no link behind port %d at %d", r, d, tbl.Port[cur][d], cur)
				}
				a, b := cur, next
				if a > b {
					a, b = b, a
				}
				edges[[2]int{a, b}] = true
				cur = next
			}
		}
	}
	if len(edges) > 15 {
		t.Fatalf("safe table uses %d undirected edges, a spanning tree of 16 routers has 15", len(edges))
	}
}

// TestBuildSafeDeterministic pins the safe table bit-for-bit across
// rebuilds: root election, tree growth and per-destination BFS must not
// depend on map order.
func TestBuildSafeDeterministic(t *testing.T) {
	n := net(t)
	dead := map[int]bool{linkID(n, 5, 6): true, linkID(n, 9, 8): true}
	a, err := BuildSafe(n.Config(), n.Links(), dead)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := BuildSafe(n.Config(), n.Links(), dead)
		if err != nil {
			t.Fatal(err)
		}
		for r := range a.Port {
			for d := range a.Port[r] {
				if a.Port[r][d] != b.Port[r][d] {
					t.Fatalf("rebuild %d: Port[%d][%d] differs (%d vs %d)", i, r, d, a.Port[r][d], b.Port[r][d])
				}
			}
		}
	}
}

// TestBuildSafeFallsBackWhenTreeImpossible: three adjacent dead clockwise
// ring edges disconnect the *bidirectional* surviving graph (routers 14 and
// 15 keep only one-way attachments), so no spanning tree exists — BuildSafe
// must fall back to the shortest-path table rather than strand routers the
// directed graph still reaches.
func TestBuildSafeFallsBackWhenTreeImpossible(t *testing.T) {
	n := ringNet(t)
	dead := map[int]bool{
		linkID(n, 13, 14): true,
		linkID(n, 14, 15): true,
		linkID(n, 15, 0):  true,
	}
	safe, err := BuildSafe(n.Config(), n.Links(), dead)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(n.Config(), n.Links(), dead)
	if err != nil {
		t.Fatal(err)
	}
	for r := range safe.Port {
		for d := range safe.Port[r] {
			if safe.Port[r][d] != plain.Port[r][d] {
				t.Fatalf("fallback Port[%d][%d] = %d, want Build's %d", r, d, safe.Port[r][d], plain.Port[r][d])
			}
		}
	}
}

// TestApplySafeRingFallbackDoesNotDeadlock is the dateline regression test:
// the fallback table routes the cut-off arc the long way around the ring,
// crossing the dateline where minimal routes never would. With the
// constructor's minimal-route VC classes this wedged the whole network
// within ~1k cycles of uniform traffic; ApplySafe reclassifies the dateline
// tables from the installed routes, so delivery must keep making progress
// and the audited invariants must hold throughout.
func TestApplySafeRingFallbackDoesNotDeadlock(t *testing.T) {
	n := ringNet(t)
	dead := map[int]bool{
		linkID(n, 13, 14): true,
		linkID(n, 14, 15): true,
		linkID(n, 15, 0):  true,
	}
	if _, err := ApplySafe(n, dead); err != nil {
		t.Fatal(err)
	}
	cores := n.Config().Cores()
	var last uint64
	for phase := 0; phase < 6; phase++ {
		for c := 0; c < cores; c++ {
			p := &flit.Packet{Hdr: flit.Header{VC: uint8(c % 2), DstR: uint8((c*7 + phase) % 16)}}
			n.Inject(c, p)
		}
		n.Run(500)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		got := n.Counters.DeliveredPackets
		if got == last {
			t.Fatalf("phase %d: no deliveries between cycles %d and %d (deadlock)", phase, (phase)*500, (phase+1)*500)
		}
		last = got
	}
}

// TestApplySafeMidRunReclaims cuts a link while wormholes are strung across
// it: the reclaiming disable must purge the truncated packets (booked as
// reconfig drops), keep every audited invariant, and leave the network
// draining to an empty steady state instead of wedging VCs forever.
func TestApplySafeMidRunReclaims(t *testing.T) {
	n := net(t)
	// Saturate so wormholes are in flight across the whole fabric.
	for round := 0; round < 3; round++ {
		for c := 0; c < 64; c++ {
			p := &flit.Packet{Hdr: flit.Header{VC: uint8(c % 2), DstR: uint8((c + 5) % 16), Mem: 1}}
			n.Inject(c, p)
		}
		n.Step()
	}
	n.Run(20) // mid-flight: buffers hold partial wormholes everywhere
	dead := map[int]bool{linkID(n, 5, 6): true, linkID(n, 10, 9): true}
	if _, err := ApplySafe(n, dead); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after reclaim: %v", err)
	}
	if n.Counters.DroppedReconfig == 0 {
		t.Fatal("no truncated wormholes reclaimed: the cut was not exercised")
	}
	n.Run(5000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	occ := n.Occupancy()
	if occ.InputFlits != 0 {
		t.Fatalf("%d flits still buffered after drain: truncated wormholes wedged", occ.InputFlits)
	}
}
