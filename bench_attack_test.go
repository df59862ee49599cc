package tasp_test

import (
	"testing"

	"tasp"
	"tasp/internal/flit"
	"tasp/internal/flood"
	"tasp/internal/noc"
	"tasp/internal/routing"
	taspht "tasp/internal/tasp"
	"tasp/internal/traffic"
	"tasp/internal/xrand"
)

// BenchmarkNetworkStepAttack measures the simulator hot path while a TASP
// trojan is active: every link into the victim router is a PlainWire whose
// trojan tap injects uncorrectable double faults into matching packets, so
// the NACK/retransmission machinery — idle in the clean Step benchmarks —
// runs continuously, and penalty waits keep moving routers in and out of
// the event-driven core's active sets.
func BenchmarkNetworkStepAttack(b *testing.B) {
	benchAttackedStep(b, func(l flit.Layout) taspht.Trojan {
		return taspht.New(tasp.ForDest(attackVictim), taspht.DefaultPayloadBits, l)
	}, func(c *noc.Counters) uint64 { return c.Retransmissions },
		"trojan inactive: no retransmissions during warm-up", "retrans/cycle")
}

// BenchmarkNetworkStepDrop measures the simulator hot path under the
// drop-trojan family: every link into the victim router carries a dropper
// that swallows matched heads under forged ACKs, so the swallow branch of
// phaseLT (entry retirement, credit return, parked-count bookkeeping) and
// the downstream orphan cleanup run continuously.
func BenchmarkNetworkStepDrop(b *testing.B) {
	benchAttackedStep(b, func(l flit.Layout) taspht.Trojan {
		return taspht.NewDropper(tasp.ForDest(attackVictim), l)
	}, func(c *noc.Counters) uint64 { return c.DroppedInFlight },
		"droppers inactive: nothing swallowed during warm-up", "drops/cycle")
}

// BenchmarkNetworkStepAdaptive measures the simulator hot path under the
// adaptive drop family: every link into the victim router carries a
// duty-cycled ThrottledDropper, so the swallow branch of phaseLT alternates
// with clean traversal at the trojan's period and both the strike and the
// quiet-phase gating run continuously.
func BenchmarkNetworkStepAdaptive(b *testing.B) {
	benchAttackedStep(b, func(l flit.Layout) taspht.Trojan {
		return taspht.NewThrottledDropper(tasp.ForDest(attackVictim), l, 0, 0)
	}, func(c *noc.Counters) uint64 { return c.DroppedInFlight },
		"throttled droppers inactive: nothing swallowed during warm-up", "drops/cycle")
}

// attackVictim is the router every attacked-Step benchmark targets: an
// interior router of the default 4x4 mesh, with 4 infected inbound links.
const attackVictim = 5

// benchAttackedStep is the one driver of the attacked-Step benchmarks. It
// arms a trojan from newTrojan on every link into attackVictim, behind an
// unmitigated PlainWire so the DoS runs unchecked (Figure 11), warms the
// default mesh up for 500 cycles of 2% uniform injection into the attacked
// steady state, fails with idle unless counter grew during the warm-up,
// then times inject+Step and reports counter's growth per cycle as metric.
// The bench gate holds every caller at 0 allocs/op.
func benchAttackedStep(b *testing.B, newTrojan func(flit.Layout) taspht.Trojan,
	counter func(*noc.Counters) uint64, idle, metric string) {
	cfg := noc.DefaultConfig()
	net, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	layout := net.Layout()
	for _, l := range net.Links() {
		if l.To != attackVictim {
			continue
		}
		ht := newTrojan(layout)
		ht.SetKillSwitch(true) // arm: Idle trojans never strike
		net.SetWire(l.ID, &noc.PlainWire{Tap: ht})
	}

	rng := xrand.New(1)
	pkt := flit.Packet{Body: make([]uint64, 4)} // reused; enqueue copies
	cores := cfg.Cores()
	inject := func() {
		for c := 0; c < cores; c++ {
			if !rng.Bool(0.02) {
				continue
			}
			dst := rng.Intn(cores)
			if dst == c {
				continue
			}
			pkt.Hdr = flit.Header{
				VC:   uint8(rng.Intn(cfg.VCs)),
				DstR: uint8(cfg.CoreRouter(dst)),
				DstC: uint8(dst % cfg.Concentration),
				Mem:  uint32(rng.Uint64()),
			}
			net.Inject(c, &pkt)
		}
	}
	for i := 0; i < 500; i++ {
		inject()
		net.Step()
	}
	if counter(&net.Counters) == 0 {
		b.Fatal(idle)
	}
	start := counter(&net.Counters)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
		net.Step()
	}
	b.ReportMetric(float64(counter(&net.Counters)-start)/float64(b.N), metric)
}

// BenchmarkNetworkStepFlood measures one cycle of the flood ablation
// (exp.AblationRoutingUnderFlood) in its flooded regime: blackscholes
// background traffic ticks, four rogue cores on router 15 flood router 0,
// and the default mesh steps under odd-even adaptive routing. Flood
// packets are drawn into the attack's own packet and the turn model
// returns shared candidate slices, so the cycle allocates nothing; the
// bench gate holds it at 0 allocs/op.
func BenchmarkNetworkStepFlood(b *testing.B) {
	cfg := noc.DefaultConfig()
	net, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	net.SetAdaptiveRoute(routing.OddEven(cfg))
	m, err := traffic.Benchmark("blackscholes", cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := m.Generator(1)
	fl := flood.New([]int{60, 61, 62, 63}, 0, 0.9, 1^0xf1)
	fl.BodyFlits = 4
	var scratch flit.Packet
	flooded := 0
	cycle := func() {
		gen.TickInto(&scratch, func(core int, p *flit.Packet) bool { return net.Inject(core, p) })
		fl.Tick(net.Cycle(), cfg.Routers(), func(core int, p *flit.Packet) bool {
			if !net.Inject(core, p) {
				return false
			}
			flooded++
			return true
		})
		net.Step()
	}
	for i := 0; i < 500; i++ {
		cycle()
	}
	if flooded == 0 {
		b.Fatal("flood idle: no rogue packet injected during warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
