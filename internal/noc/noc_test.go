package noc

import (
	"strings"
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

func mkNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func pkt(dstR, dstC int, vc uint8, body int) *flit.Packet {
	p := &flit.Packet{Hdr: flit.Header{VC: vc, DstR: uint8(dstR), DstC: uint8(dstC), Mem: 0x1000}}
	for i := 0; i < body; i++ {
		p.Body = append(p.Body, uint64(0xb0d7+i))
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*Config)
		wantErr string // substring of the error, "" = must validate
	}{
		{"default mesh", func(c *Config) {}, ""},
		{"explicit mesh", func(c *Config) { c.Topo = "mesh" }, ""},
		{"default torus", func(c *Config) { c.Topo = "torus" }, ""},
		{"default ring", func(c *Config) { c.Topo = "ring" }, ""},
		{"minimal ring", func(c *Config) { c.Topo = "ring"; c.Width, c.Height = 3, 1 }, ""},
		{"minimal mesh", func(c *Config) { c.Width, c.Height = 2, 2 }, ""},

		{"mesh too narrow", func(c *Config) { c.Width = 1 }, "at least 2x2"},
		{"mesh too short", func(c *Config) { c.Height = 1 }, "at least 2x2"},
		{"torus too narrow", func(c *Config) { c.Topo = "torus"; c.Width = 1 }, "at least 2x2"},
		{"ring too small", func(c *Config) { c.Topo = "ring"; c.Width, c.Height = 2, 1 }, "at least 3 routers"},
		{"unknown topology", func(c *Config) { c.Topo = "hypercube" }, "unknown topology"},
		{"torus one VC", func(c *Config) { c.Topo = "torus"; c.VCs = 1 }, "dateline"},
		{"ring one VC", func(c *Config) { c.Topo = "ring"; c.VCs = 1 }, "dateline"},
		{"5x4 mesh", func(c *Config) { c.Width, c.Height = 5, 4 }, ""},
		{"8x8 mesh", func(c *Config) { c.Width, c.Height = 8, 8 }, ""},
		{"8x8 torus", func(c *Config) { c.Topo = "torus"; c.Width, c.Height = 8, 8 }, ""},
		{"64-router ring", func(c *Config) { c.Topo = "ring"; c.Width, c.Height = 64, 1 }, ""},
		{"16x16 mesh", func(c *Config) { c.Width, c.Height = 16, 16 }, ""},
		{"32x32 mesh", func(c *Config) { c.Width, c.Height = 32, 32 }, "router"},
		{"zero concentration", func(c *Config) { c.Concentration = 0 }, "concentration"},
		{"concentration 8", func(c *Config) { c.Concentration = 8 }, ""},
		{"256 routers x8 cores overflow", func(c *Config) { c.Width, c.Height, c.Concentration = 16, 16, 8 }, "payload"},
		{"zero VCs", func(c *Config) { c.VCs = 0 }, "VCs must be 1..8"},
		{"8 VCs", func(c *Config) { c.VCs = 8 }, ""},
		{"oversize VCs", func(c *Config) { c.VCs = 9 }, "VCs must be 1..8"},
		{"zero BufDepth", func(c *Config) { c.BufDepth = 0 }, "BufDepth"},
		{"zero RetransDepth", func(c *Config) { c.RetransDepth = 0 }, "RetransDepth"},
		{"zero InjQueueCap", func(c *Config) { c.InjQueueCap = 0 }, "InjQueueCap"},
		{"zero RetransPenalty", func(c *Config) { c.RetransPenalty = 0 }, "RetransPenalty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.mut(&c)
			err := c.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid config rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("invalid config accepted")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestMeshWiring(t *testing.T) {
	n := mkNet(t)
	links := n.Links()
	// 4x4 mesh: 2*(3*4) horizontal + 2*(3*4) vertical = 48 directed links.
	if len(links) != 48 {
		t.Fatalf("want 48 links, got %d", len(links))
	}
	seen := map[[2]int]bool{}
	for _, l := range links {
		if seen[[2]int{l.From, l.To}] {
			t.Fatalf("duplicate link %v", l)
		}
		seen[[2]int{l.From, l.To}] = true
		fx, fy := n.cfg.XY(l.From)
		tx, ty := n.cfg.XY(l.To)
		if ab(fx-tx)+ab(fy-ty) != 1 {
			t.Fatalf("link %v connects non-adjacent routers", l)
		}
	}
}

func ab(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestXYRouting(t *testing.T) {
	c := DefaultConfig()
	r := c.Topology().Route
	// Router 0 is at (0,0); router 15 at (3,3). X first.
	if got := r(0, 15); got != PortEast {
		t.Fatalf("0->15 first hop %s, want east", PortName(got))
	}
	if got := r(3, 15); got != PortNorth { // router 3 = (3,0): x aligned
		t.Fatalf("3->15 hop %s, want north", PortName(got))
	}
	if got := r(15, 15); got != PortLocal {
		t.Fatalf("15->15 hop %s, want local", PortName(got))
	}
	if got := r(5, 4); got != PortWest {
		t.Fatalf("5->4 hop %s, want west", PortName(got))
	}
	if got := r(12, 0); got != PortSouth {
		t.Fatalf("12->0 hop %s, want south", PortName(got))
	}
}

func TestSingleFlitDelivery(t *testing.T) {
	n := mkNet(t)
	var gotLat uint64
	var gotDst flit.Header
	n.SetDelivered(func(d Delivery) {
		gotLat = d.Latency
		gotDst = d.Hdr
	})
	if !n.Inject(0, pkt(15, 3, 0, 0)) {
		t.Fatal("inject failed")
	}
	n.Run(100)
	if n.Counters.DeliveredPackets != 1 {
		t.Fatalf("delivered %d packets", n.Counters.DeliveredPackets)
	}
	if gotDst.DstR != 15 || gotDst.DstC != 3 {
		t.Fatalf("wrong destination header: %v", gotDst)
	}
	// 6 hops (0->1->2->3->7->11->15) plus ejection, ~5 cycles per hop.
	if gotLat < 12 || gotLat > 60 {
		t.Fatalf("latency %d cycles implausible for a 6-hop path", gotLat)
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	lat := func(dst int) uint64 {
		n := mkNet(t)
		n.Inject(0, pkt(dst, 0, 0, 0))
		n.Run(150)
		if n.Counters.DeliveredPackets != 1 {
			t.Fatalf("dst %d: not delivered", dst)
		}
		return n.Counters.LatencySum
	}
	l1, l3, l15 := lat(1), lat(3), lat(15)
	if !(l1 < l3 && l3 < l15) {
		t.Fatalf("latency not monotone with distance: %d %d %d", l1, l3, l15)
	}
}

func TestMultiFlitWormholeDelivery(t *testing.T) {
	n := mkNet(t)
	n.Inject(0, pkt(10, 1, 2, 4)) // 5-flit packet on VC 2
	n.Run(200)
	if n.Counters.DeliveredPackets != 1 {
		t.Fatalf("delivered %d packets", n.Counters.DeliveredPackets)
	}
	if n.Counters.DeliveredFlits < 5 {
		t.Fatalf("delivered %d flits, want >= 5", n.Counters.DeliveredFlits)
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	n := mkNet(t)
	want := 0
	for core := 0; core < n.cfg.Cores(); core++ {
		for i := 0; i < 3; i++ {
			dst := (core*7 + i*13) % n.cfg.Routers()
			if n.Inject(core, pkt(dst, core%4, uint8(i%n.cfg.VCs), i%3)) {
				want++
			}
		}
	}
	n.Run(3000)
	if got := int(n.Counters.DeliveredPackets); got != want {
		t.Fatalf("delivered %d of %d packets", got, want)
	}
	if n.Counters.InjectedFlits != n.Counters.DeliveredFlits {
		t.Fatalf("flit conservation violated: injected %d delivered %d",
			n.Counters.InjectedFlits, n.Counters.DeliveredFlits)
	}
}

func TestSameVCPacketsStayOrdered(t *testing.T) {
	n := mkNet(t)
	var order []uint64
	n.SetDelivered(func(d Delivery) { order = append(order, d.ID) })
	// Two multi-flit packets from the same core on the same VC to the same
	// destination: wormhole + per-VC ordering must deliver them in order.
	n.Inject(0, pkt(5, 0, 1, 3))
	n.Inject(0, pkt(5, 0, 1, 3))
	n.Run(300)
	if len(order) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(order))
	}
	if order[0] > order[1] {
		t.Fatalf("same-VC packets reordered: %v", order)
	}
}

func TestInjectionQueueBackpressure(t *testing.T) {
	n := mkNet(t)
	ok, fail := 0, 0
	for i := 0; i < 100; i++ { // cap is 32 flits; single-flit packets
		if n.Inject(0, pkt(15, 0, 0, 0)) {
			ok++
		} else {
			fail++
		}
	}
	if ok == 0 || fail == 0 {
		t.Fatalf("expected both accepts and rejects, got ok=%d fail=%d", ok, fail)
	}
	if n.Counters.InjectFailures != uint64(fail) {
		t.Fatalf("failure counter %d != %d", n.Counters.InjectFailures, fail)
	}
}

func TestTransientFaultsAreAbsorbed(t *testing.T) {
	n := mkNet(t)
	// Put a noisy transient injector on every link.
	for _, l := range n.Links() {
		w := NewPlainWire()
		w.Tap = fault.NewTransient(2e-4, uint64(l.ID)+1)
		n.SetWire(l.ID, w)
	}
	want := 0
	for core := 0; core < 64; core += 3 {
		if n.Inject(core, pkt((core+29)%16, 0, uint8(core%4), 2)) {
			want++
		}
	}
	n.Run(3000)
	if got := int(n.Counters.DeliveredPackets); got != want {
		t.Fatalf("delivered %d of %d despite ECC", got, want)
	}
	if n.Counters.CorrectedFaults == 0 {
		t.Fatal("expected some corrected faults at BER 2e-4")
	}
}

// nackWire refuses every transmission: the degenerate worst-case trojan.
type nackWire struct{}

func (nackWire) Transmit(_ uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, TxResult) {
	return f, TxResult{OK: false}
}

func TestPersistentNACKBuildsBackPressure(t *testing.T) {
	n := mkNet(t)
	// Kill the link 0->1 (east out of the corner router).
	var target LinkInfo
	for _, l := range n.Links() {
		if l.From == 0 && l.FromPort == PortEast {
			target = l
			break
		}
	}
	n.SetWire(target.ID, nackWire{})
	// Saturate with traffic that must cross the dead link.
	for cyc := 0; cyc < 2000; cyc++ {
		for core := 0; core < 4; core++ { // router 0's cores
			n.Inject(core, pkt(3, 0, uint8(core%4), 0))
		}
		n.Step()
	}
	o := n.Occupancy()
	if o.BlockedRouters == 0 {
		t.Fatal("no blocked routers despite a dead link under load")
	}
	if n.Counters.Retransmissions == 0 {
		t.Fatal("no retransmissions recorded")
	}
	if o.InjectionFlit == 0 {
		t.Fatal("injection queues drained despite a dead link")
	}
}

func TestDisabledLinkStopsTraffic(t *testing.T) {
	n := mkNet(t)
	var target LinkInfo
	for _, l := range n.Links() {
		if l.From == 0 && l.FromPort == PortEast {
			target = l
			break
		}
	}
	n.DisableLink(target.ID)
	if !n.LinkDisabled(target.ID) {
		t.Fatal("link not reported disabled")
	}
	n.Inject(0, pkt(1, 0, 0, 0)) // XY would use the disabled link
	n.Run(300)
	if n.Counters.DeliveredPackets != 0 {
		t.Fatal("packet crossed a disabled link")
	}
	if got := n.LinkOutput(target.ID).FlitsSent; got != 0 {
		t.Fatalf("disabled link sent %d flits", got)
	}
}

func TestReroutingAroundDisabledLink(t *testing.T) {
	n := mkNet(t)
	var target LinkInfo
	for _, l := range n.Links() {
		if l.From == 0 && l.FromPort == PortEast {
			target = l
			break
		}
	}
	n.DisableLink(target.ID)
	// Install a detour: router 0 sends north first when heading east.
	base := n.cfg.Topology().Route
	n.SetRoute(func(router, dst int) int {
		if router == 0 && base(router, dst) == PortEast {
			return PortNorth
		}
		return base(router, dst)
	})
	n.Inject(0, pkt(1, 0, 0, 0))
	n.Run(300)
	if n.Counters.DeliveredPackets != 1 {
		t.Fatal("detoured packet not delivered")
	}
}

func TestCreditsNeverExceedDepth(t *testing.T) {
	n := mkNet(t)
	for core := 0; core < 64; core += 2 {
		n.Inject(core, pkt((core+5)%16, 0, uint8(core%4), 3))
	}
	for i := 0; i < 500; i++ {
		n.Step()
		for _, r := range n.routers {
			for p := 0; p < NumPorts; p++ {
				for v, cr := range r.outputs[p].credits {
					if cr < 0 || cr > n.cfg.BufDepth {
						t.Fatalf("cycle %d r%d %s vc%d credit %d out of [0,%d]",
							n.cycle, r.id, PortName(p), v, cr, n.cfg.BufDepth)
					}
				}
				for v := 0; v < r.vcs; v++ {
					if got := r.input(p, v).size(); got > n.cfg.BufDepth {
						t.Fatalf("input VC overflow: %d flits", got)
					}
				}
				if got := len(r.outputs[p].entries); got > n.cfg.RetransDepth {
					t.Fatalf("retrans overflow: %d entries", got)
				}
			}
		}
	}
}

func TestOccupancyQuiescentNetworkIsZero(t *testing.T) {
	n := mkNet(t)
	n.Run(50)
	o := n.Occupancy()
	if o.InputFlits+o.OutputFlits+o.InjectionFlit != 0 {
		t.Fatalf("idle network has occupancy %+v", o)
	}
	if o.BlockedRouters+o.AllCoresFull+o.HalfCoresFull != 0 {
		t.Fatalf("idle network reports pressure %+v", o)
	}
}

func TestLinkLoadCounters(t *testing.T) {
	n := mkNet(t)
	n.Inject(0, pkt(3, 0, 0, 0)) // along the bottom row: 0->1->2->3
	n.Run(200)
	used := 0
	for _, l := range n.Links() {
		if n.LinkOutput(l.ID).FlitsSent > 0 {
			used++
			if l.FromPort != PortEast {
				t.Fatalf("XY path 0->3 used non-east link %v", l)
			}
		}
	}
	if used != 3 {
		t.Fatalf("XY path 0->3 should use 3 links, used %d", used)
	}
}

func TestPlainWireCorrectsAndDrops(t *testing.T) {
	w := NewPlainWire()
	f := flit.Flit{Kind: flit.Single, Payload: 0x1234}
	// Healthy.
	got, res := w.Transmit(0, f, 0, 0)
	if !res.OK || got.Payload != f.Payload {
		t.Fatal("healthy wire mangled the flit")
	}
	// Single flip: corrected.
	w.Tap = fault.ForwardFunc(func(_ uint64, cw ecc.Codeword, _ fault.Framing) ecc.Codeword { return cw.Flip(9) })
	got, res = w.Transmit(0, f, 0, 0)
	if !res.OK || !res.Corrected || got.Payload != f.Payload {
		t.Fatalf("single-bit fault not corrected: %+v", res)
	}
	// Double flip: dropped.
	w.Tap = fault.ForwardFunc(func(_ uint64, cw ecc.Codeword, _ fault.Framing) ecc.Codeword { return cw.Flip(9).Flip(33) })
	_, res = w.Transmit(0, f, 0, 0)
	if res.OK {
		t.Fatal("double-bit fault not rejected")
	}
	if w.Corrected != 1 || w.Dropped != 1 {
		t.Fatalf("wire counters wrong: %+v", w)
	}
}

func TestMaxAttemptsAbandons(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxAttempts = 3
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var target LinkInfo
	for _, l := range n.Links() {
		if l.From == 0 && l.FromPort == PortEast {
			target = l
			break
		}
	}
	n.SetWire(target.ID, nackWire{})
	n.Inject(0, pkt(1, 0, 0, 0))
	n.Run(500)
	if n.Counters.DeliveredPackets != 0 {
		t.Fatal("packet delivered through nack wire")
	}
	// The abandoned entry must leave the retransmission buffer so the port
	// is not permanently blocked.
	if got := len(n.LinkOutput(target.ID).entries); got != 0 {
		t.Fatalf("retrans buffer still holds %d entries after abandon", got)
	}
}
