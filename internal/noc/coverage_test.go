package noc

import (
	"strings"
	"testing"

	"tasp/internal/flit"
)

func TestPortNames(t *testing.T) {
	want := map[int]string{
		PortLocal: "local", PortEast: "east", PortWest: "west",
		PortNorth: "north", PortSouth: "south", 9: "port(9)",
	}
	for p, s := range want {
		if PortName(p) != s {
			t.Errorf("PortName(%d) = %q want %q", p, PortName(p), s)
		}
	}
}

func TestAccessors(t *testing.T) {
	n := mkNet(t)
	if n.Config().Routers() != 16 {
		t.Fatal("Config accessor broken")
	}
	if n.Cycle() != 0 {
		t.Fatal("fresh network cycle != 0")
	}
	n.Run(3)
	if n.Cycle() != 3 {
		t.Fatalf("cycle %d after 3 steps", n.Cycle())
	}
	if n.routers[n.links[0].From].outputs[n.links[0].FromPort].wire == nil {
		t.Fatal("Wire accessor returned nil")
	}
}

func TestCountersAvgLatency(t *testing.T) {
	var c Counters
	if c.AvgLatency() != 0 {
		t.Fatal("empty counters latency")
	}
	c.DeliveredPackets, c.LatencySum = 4, 100
	if c.AvgLatency() != 25 {
		t.Fatalf("avg %g", c.AvgLatency())
	}
}

func TestDebugDumpShowsBusyState(t *testing.T) {
	n := mkNet(t)
	if got := n.DebugDump(); got != "" {
		t.Fatalf("idle dump not empty: %q", got)
	}
	n.Inject(0, pkt(3, 0, 1, 3))
	n.Run(4)
	dump := n.DebugDump()
	if !strings.Contains(dump, "router 0") {
		t.Fatalf("dump missing router 0:\n%s", dump)
	}
	if !strings.Contains(dump, "vc1") {
		t.Fatalf("dump missing vc detail:\n%s", dump)
	}
}

func TestDebugRetransVCs(t *testing.T) {
	n := mkNet(t)
	if got := n.DebugRetransVCs(0); got != nil {
		t.Fatalf("idle retrans: %v", got)
	}
	// Wedge link 0 with a nack wire and drive one flit into its buffer.
	n.SetWire(0, nackWire{})
	n.Inject(0, pkt(1, 0, 2, 0))
	n.Run(20)
	got := n.DebugRetransVCs(0)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("retrans VCs: %v", got)
	}
}

// TestPerVCRetransScheme exercises the Figure 5 second scheme directly:
// per-VC quotas admit flits of a healthy VC even when another VC's quota is
// exhausted by wedged entries, and the total buffer can exceed the shared
// depth.
func TestPerVCRetransScheme(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransPerVC = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := retransCap(&cfg); got != cfg.RetransDepth*cfg.VCs {
		t.Fatalf("per-VC cap %d", got)
	}
	n.SetWire(0, nackWire{}) // 0 -> 1 refuses everything
	// Wedge a 5-flit packet on VC0 (it fills VC0's whole quota), then send
	// a VC1 single from another core: with per-VC buffers the VC1 flit
	// must still be admitted to the retransmission storage.
	n.Inject(0, pkt(1, 0, 0, 4))
	n.Run(80)
	n.Inject(1, pkt(1, 0, 1, 0))
	n.Run(40)
	vcs := n.DebugRetransVCs(0)
	have1 := false
	count0 := 0
	for _, v := range vcs {
		if v == 1 {
			have1 = true
		}
		if v == 0 {
			count0++
		}
	}
	if count0 == 0 || count0 > cfg.RetransDepth {
		t.Fatalf("vc0 wedge count %d (quota %d): %v", count0, cfg.RetransDepth, vcs)
	}
	if !have1 {
		t.Fatalf("vc1 flit not admitted alongside wedged vc0: %v", vcs)
	}
}

// TestSharedRetransBlocksAcrossVCs is the contrast case: with the shared
// buffer, wedged vc0 singles can only hold one slot (VC ownership limits
// one packet per VC), but a wedged multi-flit packet fills the whole buffer
// and locks other VCs out.
func TestSharedRetransBlocksAcrossVCs(t *testing.T) {
	n := mkNet(t)
	n.SetWire(0, nackWire{})
	// One 5-flit packet on vc0 fills the 4-slot shared buffer (head + 3
	// body flits wedge; the tail waits upstream).
	n.Inject(0, pkt(1, 0, 0, 4))
	n.Run(60)
	if got := len(n.DebugRetransVCs(0)); got != 4 {
		t.Fatalf("wedged entries: %d, want full buffer 4", got)
	}
	// A vc1 single cannot enter the full shared buffer.
	n.Inject(0, pkt(1, 0, 1, 0))
	n.Run(40)
	for _, v := range n.DebugRetransVCs(0) {
		if v == 1 {
			t.Fatal("vc1 flit admitted into a full shared buffer")
		}
	}
}

func TestOccupancyWhereFiltersCores(t *testing.T) {
	n := mkNet(t)
	// Queue packets at core 0 only.
	for i := 0; i < 4; i++ {
		n.Inject(0, pkt(9, 0, uint8(i), 0))
	}
	all := n.OccupancyWhere(nil, nil)
	only0 := n.OccupancyWhere(nil, func(c int) bool { return c == 0 })
	others := n.OccupancyWhere(nil, func(c int) bool { return c != 0 })
	if only0.InjectionFlit == 0 {
		t.Fatal("core 0 queue not visible")
	}
	if only0.InjectionFlit+others.InjectionFlit != all.InjectionFlit {
		t.Fatal("core filter does not partition injection occupancy")
	}
}

func TestInputVCEmptyHelper(t *testing.T) {
	var v inputVC
	if !v.empty() {
		t.Fatal("fresh VC not empty")
	}
	v.push(bufFlit{})
	if v.empty() {
		t.Fatal("non-empty VC reports empty")
	}
	if v.size() != 1 {
		t.Fatalf("size = %d, want 1", v.size())
	}
	v.pop()
	if !v.empty() {
		t.Fatal("popped VC not empty")
	}
}

func TestSetLinkScheduleGates(t *testing.T) {
	n := mkNet(t)
	// A schedule that admits nothing: the packet must never be delivered.
	n.SetLinkSchedule(func(uint64, uint8) bool { return false })
	n.Inject(0, pkt(1, 0, 0, 0))
	n.Run(200)
	if n.Counters.DeliveredPackets != 0 {
		t.Fatal("flit crossed a fully gated link")
	}
	// Open the gate: delivery completes.
	n.SetLinkSchedule(func(uint64, uint8) bool { return true })
	n.Run(200)
	if n.Counters.DeliveredPackets != 1 {
		t.Fatal("flit not delivered after opening the gate")
	}
}

func TestSetAdaptiveRouteFallsBackWhenAllDisabled(t *testing.T) {
	n := mkNet(t)
	n.SetAdaptiveRoute(func(router, dst int) []int {
		return []int{PortEast, PortNorth}
	})
	// Disable both candidates out of router 0: the selector still returns
	// a port (the first candidate) rather than panicking.
	for _, l := range n.Links() {
		if l.From == 0 && (l.FromPort == PortEast || l.FromPort == PortNorth) {
			n.DisableLink(l.ID)
		}
	}
	n.Inject(0, pkt(15, 0, 0, 0))
	n.Run(50) // routes to a disabled port; packet parks — no crash, no delivery
	if n.Counters.DeliveredPackets != 0 {
		t.Fatal("packet crossed disabled links")
	}
}

func TestMultiFlitWithStallReadyAt(t *testing.T) {
	// A wire that delivers with a stall: readyAt must defer RC and the
	// latency must grow accordingly.
	n := mkNet(t)
	base := n.routers[n.links[0].From].outputs[n.links[0].FromPort].wire
	n.SetWire(0, stallWire{inner: base})
	n.Inject(0, pkt(1, 0, 0, 0))
	n.Run(100)
	if n.Counters.DeliveredPackets != 1 {
		t.Fatal("not delivered through stall wire")
	}
	lat := n.Counters.LatencySum
	// Compare with the unstalled path.
	m := mkNet(t)
	m.Inject(0, pkt(1, 0, 0, 0))
	m.Run(100)
	if lat != m.Counters.LatencySum+3 {
		t.Fatalf("stall of 3 not reflected: %d vs %d", lat, m.Counters.LatencySum)
	}
}

type stallWire struct{ inner Wire }

func (w stallWire) Transmit(c uint64, f flit.Flit, vc uint8, a int) (flit.Flit, TxResult) {
	g, res := w.inner.Transmit(c, f, vc, a)
	if res.OK {
		res.Stall = 3
	}
	return g, res
}
