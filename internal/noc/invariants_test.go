package noc

import (
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
// every cycle of a mixed soak — clean bursts, a full drain into the scheduled
// sleep stretch, a hostile NACK link under load, then mitigation by disabling
// the attacked link mid-flight — on all three topologies. CheckInvariants
// recomputes the active sets and occupancy masks from a brute-force "holds
// flits or pending retransmission/injection work" sweep, so any wake/sleep
// edge the scheduler misses fails here with the first divergent cycle.
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

			// Clean burst, then drain to quiescence: the scheduler must
			// enter (and be audited inside) the sleep stretch.
			for i := 0; i < 200; i++ {
				inject(0.05)
				step()
			}
			slept := false
			for i := 0; i < 800; i++ {
				step()
				slept = slept || n.asleep()
			}
			if !slept {
				t.Fatal("network never reached the scheduled sleep stretch after draining")
			}

			// Attack: a persistent NACK wire under sustained load keeps the
			// retransmission buffers parked and the penalty waits cycling
			// through sleep/wake edges.
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
// from the per-router tallies (would corrupt the sleep decision).
func TestInvariantCatchesCounterDrift(t *testing.T) {
	n := mkNet(t)
	n.sched.flitsParked++
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("global counter drift not caught")
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
