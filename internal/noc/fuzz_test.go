package noc

import (
	"fmt"
	"reflect"
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
		n, err := New(fuzzConfig(t, topo, width, height, rate))
		if err != nil {
			t.Fatal(err)
		}
		runFuzzPlatform(t, n, rate, seed, int(link)%len(n.links), int(disableAt))
	})
}

const fuzzCycles = 400

// fuzzConfig is the fuzz platform's configuration. It skips inputs whose
// rate is no probability or whose configuration Config.Validate rejects.
func fuzzConfig(t *testing.T, topo, width, height uint8, rate float64) Config {
	t.Helper()
	if !(rate >= 0 && rate <= 1) {
		t.Skip("rate outside [0, 1]")
	}
	cfg := DefaultConfig()
	cfg.Topo = Topologies()[int(topo)%len(Topologies())]
	cfg.Width, cfg.Height = int(width), int(height)
	if err := cfg.Validate(); err != nil {
		t.Skip(err)
	}
	return cfg
}

// fuzzLoad draws one cycle of the fuzz load: each core starts a packet to a
// random other router with probability rate, on a random VC with up to four
// body flits, and hands it to inject.
func fuzzLoad(rng *xrand.RNG, cfg *Config, rate float64, inject func(core int, p *flit.Packet)) {
	routers, cores := cfg.Routers(), cfg.Cores()
	for c := 0; c < cores; c++ {
		if !rng.Bool(rate) {
			continue
		}
		dst := rng.Intn(routers)
		if dst == cfg.CoreRouter(c) {
			continue
		}
		inject(c, &flit.Packet{
			Hdr:  flit.Header{VC: uint8(rng.Intn(cfg.VCs)), DstR: uint8(dst), Mem: uint32(rng.Uint64())},
			Body: make([]uint64, rng.Intn(5)),
		})
	}
}

func runFuzzPlatform(t *testing.T, n *Network, rate float64, seed uint64, disable, disableAt int) {
	cfg := n.Config()
	rng := xrand.New(seed)
	for _, l := range n.Links() {
		w := NewPlainWire()
		w.Tap = fault.NewTransient(1e-4, seed+uint64(l.ID))
		n.SetWire(l.ID, w)
	}
	n.SetWire(int(seed%uint64(len(n.links))), nackWire{})
	inject := func(c int, p *flit.Packet) { n.Inject(c, p) }
	for cycle := 1; cycle <= fuzzCycles; cycle++ {
		fuzzLoad(rng, &cfg, rate, inject)
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

// FuzzCheckpointResume checks Save and Restore against the run they cut: a
// random platform takes the fuzz load over its healthy plain wires, one
// NACKing link and a sampled telemetry tap, and is saved at the end of cycle
// save (modulo fuzzCycles). A fresh network of the same configuration,
// wired the same way, restores the checkpoint and must pass CheckInvariants
// at once. From then on both networks take the same load, and their saves
// must be equal every cycle up to fuzzCycles. The seed corpus is the soak's
// three platforms, so plain `go test` runs them; `make fuzz` explores
// beyond.
func FuzzCheckpointResume(f *testing.F) {
	// topo, width, height, rate, seed, save cycle
	f.Add(uint8(0), uint8(4), uint8(4), 0.1, uint64(7), uint16(200))
	f.Add(uint8(1), uint8(4), uint8(4), 0.1, uint64(7), uint16(200))
	f.Add(uint8(2), uint8(8), uint8(1), 0.1, uint64(7), uint16(200))
	f.Fuzz(func(t *testing.T, topo, width, height uint8, rate float64, seed uint64, save uint16) {
		cfg := fuzzConfig(t, topo, width, height, rate)
		build := func() (*Network, *LinkTelemetry) {
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.SetWire(int(seed%uint64(len(n.links))), nackWire{})
			return n, n.EnableTelemetry(16)
		}
		step := func(n *Network, tel *LinkTelemetry) {
			n.Step()
			if n.Cycle()%10 == 0 {
				tel.Sample()
			}
		}
		rng := xrand.New(seed)
		a, telA := build()
		for a.Cycle() < uint64(save)%fuzzCycles {
			fuzzLoad(rng, &cfg, rate, func(c int, p *flit.Packet) { a.Inject(c, p) })
			step(a, telA)
		}
		var ckA, ckB Checkpoint
		a.Save(&ckA)
		b, telB := build()
		b.Restore(&ckA)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("network restored at cycle %d breaks an invariant: %v", a.Cycle(), err)
		}
		both := func(c int, p *flit.Packet) {
			if a.Inject(c, p) != b.Inject(c, p) {
				t.Fatalf("cycle %d: core %d's injection differs", a.Cycle(), c)
			}
		}
		for {
			a.Save(&ckA)
			b.Save(&ckB)
			if f := ckDiff(&ckA, &ckB); f != "" {
				t.Fatalf("cycle %d: the restored network's %s differs from the saved one's", a.Cycle(), f)
			}
			if a.Cycle() == fuzzCycles {
				break
			}
			fuzzLoad(rng, &cfg, rate, both)
			step(a, telA)
			step(b, telB)
		}
	})
}

// ckDiff reports whether two checkpoints differ and, if so, names the
// first field whose printed form differs ("state" when none does).
func ckDiff(a, b *Checkpoint) string {
	if reflect.DeepEqual(a, b) {
		return ""
	}
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if fmt.Sprint(va.Field(i)) != fmt.Sprint(vb.Field(i)) {
			return va.Type().Field(i).Name
		}
	}
	return "state"
}
