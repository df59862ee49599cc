package noc

import (
	"math/bits"
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

func TestInvariantsHoldOnIdleNetwork(t *testing.T) {
	n := mkNet(t)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n.Run(100)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsUnderRandomTraffic hammers the network with random traffic,
// random transient faults and a hostile nack wire, auditing every cycle.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	n := mkNet(t)
	rng := xrand.New(99)
	for _, l := range n.Links() {
		w := NewPlainWire()
		w.Tap = fault.NewTransient(1e-4, uint64(l.ID)+5)
		n.SetWire(l.ID, w)
	}
	// One hostile link that drops everything.
	n.SetWire(7, nackWire{})
	for c := 0; c < 3000; c++ {
		if rng.Bool(0.5) {
			core := rng.Intn(64)
			dst := rng.Intn(16)
			if dst != n.cfg.CoreRouter(core) {
				n.Inject(core, &flit.Packet{
					Hdr:  flit.Header{VC: uint8(rng.Intn(4)), DstR: uint8(dst), Mem: uint32(rng.Uint64())},
					Body: make([]uint64, rng.Intn(5)),
				})
			}
		}
		n.Step()
		if c%10 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
}

// TestInvariantsWithDisabledLinks audits the link-disable/reroute path.
func TestInvariantsWithDisabledLinks(t *testing.T) {
	n := mkNet(t)
	for core := 0; core < 64; core += 2 {
		n.Inject(core, &flit.Packet{Hdr: flit.Header{VC: uint8(core % 4), DstR: uint8((core + 5) % 16)}, Body: make([]uint64, 3)})
	}
	n.Run(20)
	n.DisableLink(0)
	base := n.cfg.Topology().Route
	n.SetRoute(func(router, dst int) int {
		if router == 0 && base(router, dst) == PortEast {
			return PortNorth
		}
		return base(router, dst)
	})
	for c := 0; c < 500; c++ {
		n.Step()
		if c%25 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
}

// TestActiveSetsMatchBruteForceDuringSoak audits the event-driven core on
// every cycle of a mixed soak — clean bursts, a full drain of the network, a
// hostile NACK link under load, then mitigation by disabling the attacked
// link mid-flight — on all three topologies. CheckInvariants recomputes the
// active sets and occupancy masks from a brute-force "holds flits or pending
// retransmission/injection work" sweep, so any activity edge the scheduler
// misses fails here with the first divergent cycle.
func TestActiveSetsMatchBruteForceDuringSoak(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"mesh", func(c *Config) {}},
		{"torus", func(c *Config) { c.Topo = "torus" }},
		{"ring", func(c *Config) { c.Topo = "ring"; c.Width, c.Height = 8, 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(7)
			for _, l := range n.Links() {
				w := NewPlainWire()
				w.Tap = fault.NewTransient(1e-4, uint64(l.ID)+3)
				n.SetWire(l.ID, w)
			}
			cycle := 0
			step := func() {
				n.Step()
				cycle++
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
			}
			routers := cfg.Width * cfg.Height
			cores := cfg.Cores()
			inject := func(rate float64) {
				for c := 0; c < cores; c++ {
					if !rng.Bool(rate) {
						continue
					}
					dst := rng.Intn(routers)
					if dst == cfg.CoreRouter(c) {
						continue
					}
					n.Inject(c, &flit.Packet{
						Hdr:  flit.Header{VC: uint8(rng.Intn(cfg.VCs)), DstR: uint8(dst), Mem: uint32(rng.Uint64())},
						Body: make([]uint64, rng.Intn(5)),
					})
				}
			}

			// Clean burst, then drain to an empty network: every active
			// set must empty with the buffers it mirrors.
			for i := 0; i < 200; i++ {
				inject(0.05)
				step()
			}
			for i := 0; i < 800; i++ {
				step()
			}
			if s := n.sched; s.flitsIn+s.flitsParked+s.flitsNI != 0 {
				t.Fatalf("network still holds %d input, %d parked and %d queued flits after draining",
					s.flitsIn, s.flitsParked, s.flitsNI)
			}

			// Attack: a persistent NACK wire under sustained load keeps the
			// retransmission buffers parked and the penalty waits cycling
			// routers in and out of the active sets.
			target := n.Links()[0]
			n.SetWire(target.ID, nackWire{})
			for i := 0; i < 600; i++ {
				inject(0.1)
				step()
			}
			if n.Counters.Retransmissions == 0 {
				t.Fatal("attack phase produced no retransmissions")
			}

			// Mitigation: disable the attacked link mid-flight (dropping its
			// parked entries) and let the survivors drain.
			n.DisableLink(target.ID)
			for i := 0; i < 200; i++ {
				inject(0.02)
				step()
			}
			for i := 0; i < 400; i++ {
				step()
			}
			if n.Counters.DeliveredPackets == 0 {
				t.Fatal("soak delivered nothing")
			}
		})
	}
}

// TestInvariantCatchesStaleActiveSetBit plants a stale active-set bit — the
// precise failure mode of the event-driven core (a phase would sweep a router
// with no work, or worse, clearing a live bit would skip one with work).
func TestInvariantCatchesStaleActiveSetBit(t *testing.T) {
	n := mkNet(t)
	n.sched.actIn.set(3) // router 3 holds no flits
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("stale actIn bit not caught")
	}
}

// TestInvariantCatchesStaleOccBit plants an occupancy-mask bit with no
// backing flit: SA/RC would scan a VC the buffers say is empty.
func TestInvariantCatchesStaleOccBit(t *testing.T) {
	n := mkNet(t)
	r := n.routers[2]
	r.occ |= 1 << r.occBit(PortEast, 1)
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("stale occ bit not caught")
	}
}

// TestInvariantCatchesCounterDrift desynchronizes the global flit counter
// from the per-router tallies (would mis-size a checkpoint's flit arrays).
func TestInvariantCatchesCounterDrift(t *testing.T) {
	n := mkNet(t)
	n.sched.flitsParked++
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("global counter drift not caught")
	}
}

// TestInvariantCatchesStaleDeadOutput plants a dead-output bit for a live
// port: RC would keep re-routing heads bound for a working output.
func TestInvariantCatchesStaleDeadOutput(t *testing.T) {
	n := mkNet(t)
	n.routers[5].deadOut |= 1 << PortEast
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("stale dead-output bit not caught")
	}
}

// TestInvariantCatchesWrongCachedDestination corrupts each header field RC
// cached for a head waiting on VA: VA would allocate the VC class of the
// wrong destination, and ST would stamp the packet's flits with the wrong
// flow.
func TestInvariantCatchesWrongCachedDestination(t *testing.T) {
	n := mkNet(t)
	n.Inject(0, pkt(15, 0, 1, 2))
	for c := 0; c < 20; c++ {
		n.Step()
		for _, r := range n.routers {
			if r.reqVA == 0 {
				continue
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			ivc := &r.ivcs[bits.TrailingZeros64(r.reqVA)]
			for _, c := range []struct {
				name  string
				field *uint8
			}{{"destination", &ivc.dst}, {"source", &ivc.src}, {"header VC", &ivc.hvc}} {
				*c.field ^= 1
				if err := n.CheckInvariants(); err == nil {
					t.Errorf("wrong cached %s not caught", c.name)
				}
				*c.field ^= 1
			}
			return
		}
	}
	t.Fatal("no head ever waited for VA")
}

// TestInvariantCatchesStalledNIThatCanInject marks an NI as refused by a
// full local VC while its queued head targets an empty one: Step would skip
// an NI that can inject.
func TestInvariantCatchesStalledNIThatCanInject(t *testing.T) {
	n := mkNet(t)
	r, ni := n.routers[0], n.nis[0]
	single := pkt(5, 0, 1, 0).AppendFlits(nil, &n.layout)[0]
	for i := 0; i < n.cfg.BufDepth; i++ {
		r.deposit(PortLocal, 1, bufFlit{f: single, readyAt: 1}, 0)
	}
	n.Inject(0, pkt(5, 0, 0, 2))
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("before corruption: %v", err)
	}
	ni.refuse(1 << 1) // local VC 1 is full, but the head wants VC 0
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("NI skipped by Step while it can inject not caught")
	}
}

// TestInvariantCatchesCorruption plants a deliberate credit corruption and
// checks the auditor reports it.
func TestInvariantCatchesCorruption(t *testing.T) {
	n := mkNet(t)
	n.routers[0].outputs[PortEast].credits[0]++
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("credit corruption not caught")
	}
}

// TestInvariantCatchesOwnershipBreach plants a retransmission entry on an
// unowned VC.
func TestInvariantCatchesOwnershipBreach(t *testing.T) {
	n := mkNet(t)
	op := n.routers[0].outputs[PortEast]
	op.entries = append(op.entries, retransEntry{f: flit.Flit{Kind: flit.Single, Payload: ecc.Encode(0).Lo}, vc: 2})
	op.credits[2]-- // keep credit accounting consistent
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("ownership breach not caught")
	}
}

func TestConfigRejectsOversizeMesh(t *testing.T) {
	// The substrate is bounded by the flit header's 64-bit capacity, not a
	// fixed id width: 8x8 (6-bit ids) and 16x16 (8-bit ids) fit, a 32x32
	// grid would need 10-bit router ids and must be rejected.
	c := DefaultConfig()
	c.Width, c.Height = 8, 8
	if err := c.Validate(); err != nil {
		t.Fatalf("64-router mesh rejected: %v", err)
	}
	c.Width, c.Height = 16, 16
	if err := c.Validate(); err != nil {
		t.Fatalf("256-router mesh rejected: %v", err)
	}
	c.Width, c.Height = 32, 32
	if err := c.Validate(); err == nil {
		t.Fatal("1024-router mesh accepted despite 8-bit id capacity")
	}
	c.Width, c.Height = 4, 4
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
