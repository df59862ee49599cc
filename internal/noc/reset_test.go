package noc

import (
	"bytes"
	"fmt"
	"testing"

	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// resetScenario drives a deterministic mixed scenario — transient-fault
// wires on every link, a hostile NACK link, a mid-run link disable with a
// reroute, telemetry sampling and periodic occupancy snapshots — and renders
// everything observable into one byte trace: deliveries in order, occupancy
// samples, final counters, per-link telemetry aggregates. Two runs are
// behaviourally identical iff their traces are byte-identical.
func resetScenario(n *Network) []byte {
	var buf []byte
	rng := xrand.New(7)
	cfg := n.Config()
	for _, l := range n.LinkSlice() {
		w := NewPlainWire()
		w.Tap = fault.NewTransient(5e-4, uint64(l.ID)+11)
		n.SetWire(l.ID, w)
	}
	n.SetWire(7, nackWire{})
	tel := n.EnableTelemetry(32)
	n.SetDelivered(func(d Delivery) {
		buf = fmt.Appendf(buf, "d %d %d %d\n", d.ID, d.Flits, d.Latency)
	})
	pkt := flit.Packet{Body: make([]uint64, 3)}
	cores := cfg.Cores()
	for c := 0; c < 2500; c++ {
		for k := 0; k < 2; k++ {
			if !rng.Bool(0.3) {
				continue
			}
			core := rng.Intn(cores)
			dst := rng.Intn(cores)
			if dst == core {
				continue
			}
			pkt.Hdr = flit.Header{
				VC:   uint8(rng.Intn(cfg.VCs)),
				DstR: uint8(cfg.CoreRouter(dst)),
				DstC: uint8(dst % cfg.Concentration),
				Mem:  uint32(rng.Uint64()),
			}
			n.Inject(core, &pkt)
		}
		if c == 800 {
			// Mid-run reconfiguration: kill the hostile link and steer
			// around it, exercising the disabled flag and route swap that
			// Reset must undo.
			n.DisableLink(7)
			base := cfg.Topology().Route
			dead := n.LinkSlice()[7]
			divert := -1 // another live output port on the same router
			for _, l := range n.LinkSlice() {
				if l.From == dead.From && l.FromPort != dead.FromPort {
					divert = l.FromPort
					break
				}
			}
			n.SetRoute(func(router, dst int) int {
				if p := base(router, dst); router != dead.From || p != dead.FromPort {
					return p
				}
				return divert
			})
		}
		n.Step()
		if c%50 == 0 {
			tel.Sample()
			o := n.Occupancy()
			buf = fmt.Appendf(buf, "o %d %d %d %d %d %d\n",
				o.Cycle, o.InputFlits, o.OutputFlits, o.InjectionFlit, o.BlockedRouters, o.AllCoresFull)
		}
	}
	buf = fmt.Appendf(buf, "counters %+v\n", n.Counters)
	for id := 0; id < tel.Links(); id++ {
		fb, _ := tel.FirstBlocked(id)
		onset, _ := tel.Onset(id)
		buf = fmt.Appendf(buf, "t %d %d %d %d %.6f\n", id, fb, onset, tel.OnsetStreak(id), tel.BlockedFrac(id))
	}
	return buf
}

// TestResetByteIdenticalToFresh is the satellite contract: a reset network
// must be behaviourally indistinguishable from a freshly constructed one.
// The same hostile scenario runs on a fresh network, on the same network
// after Reset, and on a second fresh network; all three traces must match
// byte for byte.
func TestResetByteIdenticalToFresh(t *testing.T) {
	n := mkNet(t)
	first := resetScenario(n)
	n.Reset()
	afterReset := resetScenario(n)
	if !bytes.Equal(first, afterReset) {
		t.Fatalf("reset network diverged from its own fresh run:\nfresh %d bytes, reset %d bytes\nfirst difference near %d",
			len(first), len(afterReset), diffAt(first, afterReset))
	}
	fresh := resetScenario(mkNet(t))
	if !bytes.Equal(first, fresh) {
		t.Fatalf("fresh-vs-fresh runs diverged (driver is not deterministic); first difference near %d", diffAt(first, fresh))
	}
}

// TestResetReusesTelemetryTap verifies the arena path: re-enabling telemetry
// with the same shape returns the same cleared tap instead of allocating a
// new one, and a different depth still swaps in a fresh tap.
func TestResetReusesTelemetryTap(t *testing.T) {
	n := mkNet(t)
	tap := n.EnableTelemetry(32)
	tap.Sample()
	n.Reset()
	if got := n.EnableTelemetry(32); got != tap {
		t.Fatal("same-shape EnableTelemetry after Reset did not reuse the attached tap")
	}
	if tap.Samples() != 0 || tap.rows != 0 {
		t.Fatalf("reused tap retained samples: samples=%d rows=%d", tap.Samples(), tap.rows)
	}
	if got := n.EnableTelemetry(16); got == tap {
		t.Fatal("EnableTelemetry with a different depth must build a fresh tap")
	}
}

// TestResetAllocationBudget pins the whole arena cycle — a loaded run
// followed by Reset — at zero steady-state allocations, the property the
// campaign engine's 0 allocs/point contract stands on.
func TestResetAllocationBudget(t *testing.T) {
	n, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	load := newStepLoad(n, 1, 0.02)
	for warm := 0; warm < 3; warm++ { // establish buffer/freelist high-water marks
		for i := 0; i < 1200; i++ {
			load.inject()
			n.Step()
		}
		n.EnableTelemetry(32)
		n.Reset()
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 400; i++ {
			load.inject()
			n.Step()
		}
		n.EnableTelemetry(32)
		n.Reset()
	})
	if avg > 0.05 {
		t.Fatalf("steady-state run+Reset cycle allocates %.3f times; the arena budget is 0", avg)
	}
	if n.Counters.InjectedPackets != 0 {
		t.Fatal("Reset left counters dirty")
	}
}

// TestLinkSliceDoesNotAllocate pins the hot-loop accessor at zero
// allocations and verifies it exposes the same descriptors Links copies.
func TestLinkSliceDoesNotAllocate(t *testing.T) {
	n := mkNet(t)
	if avg := testing.AllocsPerRun(100, func() { _ = n.LinkSlice() }); avg != 0 {
		t.Fatalf("LinkSlice allocates %.3f times per call", avg)
	}
	copied, shared := n.Links(), n.LinkSlice()
	if len(copied) != len(shared) {
		t.Fatalf("Links/LinkSlice length mismatch: %d vs %d", len(copied), len(shared))
	}
	for i := range shared {
		if copied[i] != shared[i] {
			t.Fatalf("link %d differs between Links and LinkSlice", i)
		}
	}
}

func diffAt(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
