package noc

import (
	"testing"

	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// FuzzStepInvariants drives random platforms through the event-driven core
// and audits every cycle: CheckInvariants (which certifies every skip Step
// takes) and flit conservation. Each run lasts fuzzCycles cycles of random
// traffic at the given per-core rate, over transient faults on every link
// and a NACK wire on one, and disables one link mid-run (never, when
// disableAt >= fuzzCycles). Configurations Config.Validate rejects are
// skipped. The seed corpus is the per-cycle soak's three platforms, so
// plain `go test` runs them; `make fuzz` explores beyond.
func FuzzStepInvariants(f *testing.F) {
	// topo, width, height, rate, seed, link to disable, disable cycle
	f.Add(uint8(0), uint8(4), uint8(4), 0.1, uint64(7), uint16(0), uint16(250))
	f.Add(uint8(1), uint8(4), uint8(4), 0.1, uint64(7), uint16(0), uint16(250))
	f.Add(uint8(2), uint8(8), uint8(1), 0.1, uint64(7), uint16(0), uint16(250))
	f.Fuzz(func(t *testing.T, topo, width, height uint8, rate float64, seed uint64, link, disableAt uint16) {
		if !(rate >= 0 && rate <= 1) {
			t.Skip("rate outside [0, 1]")
		}
		cfg := DefaultConfig()
		cfg.Topo = Topologies()[int(topo)%len(Topologies())]
		cfg.Width, cfg.Height = int(width), int(height)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runFuzzPlatform(t, n, rate, seed, int(link)%len(n.links), int(disableAt))
	})
}

const fuzzCycles = 400

func runFuzzPlatform(t *testing.T, n *Network, rate float64, seed uint64, disable, disableAt int) {
	cfg := n.Config()
	rng := xrand.New(seed)
	for _, l := range n.Links() {
		w := NewPlainWire()
		w.Tap = fault.NewTransient(1e-4, seed+uint64(l.ID))
		n.SetWire(l.ID, w)
	}
	n.SetWire(int(seed%uint64(len(n.links))), nackWire{})
	routers, cores := cfg.Routers(), cfg.Cores()
	for cycle := 1; cycle <= fuzzCycles; cycle++ {
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
		if cycle == disableAt {
			n.DisableLink(disable)
		}
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		c, s := &n.Counters, n.sched
		if held := c.DeliveredFlits + c.DroppedFlits + uint64(s.flitsIn+s.flitsParked+s.flitsNI); c.InjectedFlits != held {
			t.Fatalf("cycle %d: injected %d flits, but delivered %d + dropped %d + buffered %d + parked %d + queued %d = %d",
				cycle, c.InjectedFlits, c.DeliveredFlits, c.DroppedFlits, s.flitsIn, s.flitsParked, s.flitsNI, held)
		}
	}
}
