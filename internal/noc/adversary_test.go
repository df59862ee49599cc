package noc

import (
	"testing"

	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/tasp"
	"tasp/internal/xrand"
)

// linkBetween finds the directional link From -> To.
func linkBetween(t *testing.T, n *Network, from, to int) LinkInfo {
	t.Helper()
	for _, l := range n.Links() {
		if l.From == from && l.To == to {
			return l
		}
	}
	t.Fatalf("no link %d -> %d", from, to)
	return LinkInfo{}
}

// coreAt finds a core attached to the given router.
func coreAt(t *testing.T, cfg Config, router int) int {
	t.Helper()
	for c := 0; c < cfg.Cores(); c++ {
		if cfg.CoreRouter(c) == router {
			return c
		}
	}
	t.Fatalf("no core at router %d", router)
	return -1
}

// TestDropperSwallowRetiresPacket is the swallow-path contract: a dropped
// head must retire its retransmission entry (credit and VC ownership
// returned), count as an in-flight drop, leave a FlitsSent/FlitsRecv gap on
// the infected link, and orphan the beheaded body downstream — all without
// tripping the invariant auditor or wedging the link for later packets.
func TestDropperSwallowRetiresPacket(t *testing.T) {
	n := mkNet(t)
	target := linkBetween(t, n, 1, 0) // XY path of router-1 -> router-0 traffic
	d := tasp.NewDropper(tasp.ForDest(0), n.Layout())
	d.SetKillSwitch(true)
	w := NewPlainWire()
	w.Tap = d
	n.SetWire(target.ID, w)

	if !n.Inject(coreAt(t, n.cfg, 1), pkt(0, 0, 0, 3)) {
		t.Fatal("inject failed")
	}
	n.Run(300)

	if n.Counters.DeliveredPackets != 0 {
		t.Fatal("beheaded packet was delivered")
	}
	if matches, drops := d.Stats(); matches != 1 || drops != 1 {
		t.Fatalf("dropper stats = %d/%d, want 1/1", matches, drops)
	}
	if n.Counters.DroppedInFlight != 1 {
		t.Fatalf("DroppedInFlight = %d, want 1 (the swallowed head)", n.Counters.DroppedInFlight)
	}
	if n.Counters.DroppedOrphan == 0 {
		t.Fatal("beheaded body flits were not orphan-dropped downstream")
	}
	if got, want := n.Counters.DroppedFlits, n.Counters.DroppedInFlight+n.Counters.DroppedOrphan; got != want {
		t.Fatalf("DroppedFlits = %d, want %d (in-flight + orphan)", got, want)
	}
	op := n.LinkOutput(target.ID)
	if gap := op.FlitsSent - op.FlitsRecv; gap != 1 {
		t.Fatalf("secure-ack gap = %d, want 1", gap)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// With the kill switch off the same path must carry traffic again: the
	// swallow returned the SA-reserved credit and released the VC.
	d.SetKillSwitch(false)
	if !n.Inject(coreAt(t, n.cfg, 1), pkt(0, 0, 0, 3)) {
		t.Fatal("second inject failed")
	}
	n.Run(300)
	if n.Counters.DeliveredPackets != 1 {
		t.Fatalf("delivered %d packets after disarm, want 1 (link wedged?)", n.Counters.DeliveredPackets)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMisrouterRewritesDestination checks the misroute strike end to end:
// the rewritten header decodes clean, the packet lands at the hijack router,
// and the receiving router's route-conformance check books the violation.
func TestMisrouterRewritesDestination(t *testing.T) {
	n := mkNet(t)
	target := linkBetween(t, n, 2, 1) // XY path of router-2 -> router-0 traffic
	m := tasp.NewMisrouter(tasp.ForDest(0), 15, n.Layout())
	m.SetKillSwitch(true)
	w := NewPlainWire()
	w.Tap = m
	n.SetWire(target.ID, w)

	var deliveredDst []uint8
	n.SetDelivered(func(d Delivery) { deliveredDst = append(deliveredDst, d.Hdr.DstR) })

	if !n.Inject(coreAt(t, n.cfg, 2), pkt(0, 0, 0, 3)) {
		t.Fatal("inject failed")
	}
	n.Run(400)

	if matches, rewrites := m.Stats(); matches != 1 || rewrites != 1 {
		t.Fatalf("misrouter stats = %d/%d, want 1/1", matches, rewrites)
	}
	if n.Counters.DeliveredPackets != 1 {
		t.Fatalf("delivered %d packets, want 1 (hijacked delivery)", n.Counters.DeliveredPackets)
	}
	if len(deliveredDst) != 1 || deliveredDst[0] != 15 {
		t.Fatalf("delivered destinations = %v, want [15]", deliveredDst)
	}
	if n.Counters.DroppedFlits != 0 {
		t.Fatalf("DroppedFlits = %d, want 0 (misroute loses nothing)", n.Counters.DroppedFlits)
	}
	if op := n.LinkOutput(target.ID); op.RouteViolations == 0 {
		t.Fatal("route-conformance check missed the rewritten arrival")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsUnderTrojanSoak audits the event-driven core on every
// topology with drop and misroute trojans armed under random traffic — the
// swallow path exercises retirement, credit return and orphan cleanup
// against the full invariant sweep.
func TestInvariantsUnderTrojanSoak(t *testing.T) {
	topos := []struct {
		name string
		mut  func(*Config)
	}{
		{"mesh", func(c *Config) {}},
		{"torus", func(c *Config) { c.Topo = "torus" }},
		{"ring", func(c *Config) { c.Topo = "ring"; c.Width, c.Height = 8, 1 }},
	}
	for _, tc := range topos {
		for _, kind := range []tasp.Kind{tasp.KindDrop, tasp.KindMisroute} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				cfg := DefaultConfig()
				tc.mut(&cfg)
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				routers := cfg.Width * cfg.Height
				var trojans []tasp.Trojan
				for _, l := range n.Links()[:2] {
					var tr tasp.Trojan
					if kind == tasp.KindDrop {
						tr = tasp.NewDropper(tasp.ForDest(0), n.Layout())
					} else {
						tr = tasp.NewMisrouter(tasp.ForDest(0), uint8(routers-1), n.Layout())
					}
					tr.SetKillSwitch(true)
					w := NewPlainWire()
					w.Tap = tr
					n.SetWire(l.ID, w)
					trojans = append(trojans, tr)
				}
				// A background transient source on one more link keeps the
				// retransmission machinery live alongside the trojans.
				third := n.Links()[2]
				tw := NewPlainWire()
				tw.Tap = fault.NewTransient(1e-4, uint64(third.ID)+11)
				n.SetWire(third.ID, tw)

				rng := xrand.New(23)
				cores := cfg.Cores()
				for c := 0; c < 1500; c++ {
					for core := 0; core < cores; core++ {
						if !rng.Bool(0.05) {
							continue
						}
						dst := rng.Intn(routers)
						if dst == cfg.CoreRouter(core) {
							continue
						}
						n.Inject(core, &flit.Packet{
							Hdr:  flit.Header{VC: uint8(rng.Intn(cfg.VCs)), DstR: uint8(dst), Mem: uint32(rng.Uint64())},
							Body: make([]uint64, rng.Intn(5)),
						})
					}
					n.Step()
					if c%10 == 0 {
						if err := n.CheckInvariants(); err != nil {
							t.Fatalf("cycle %d: %v", c, err)
						}
					}
				}
				struck := uint64(0)
				for _, tr := range trojans {
					_, s := tr.Stats()
					struck += s
				}
				if struck == 0 {
					t.Fatal("soak never exercised a trojan strike")
				}
				if n.Counters.DeliveredPackets == 0 {
					t.Fatal("soak delivered nothing")
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
