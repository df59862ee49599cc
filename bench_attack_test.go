package tasp_test

import (
	"testing"

	"tasp"
	"tasp/internal/flit"
	"tasp/internal/noc"
	taspht "tasp/internal/tasp"
	"tasp/internal/xrand"
)

// BenchmarkNetworkStepAttack measures the simulator hot path while a TASP
// trojan is active: every link into the victim router is a PlainWire whose
// trojan tap injects uncorrectable double faults into matching packets, so
// the NACK/retransmission machinery — idle in the clean Step benchmarks —
// runs continuously, along with the sleep/wake edges of the event-driven
// core as penalty waits empty and refill the active sets.
func BenchmarkNetworkStepAttack(b *testing.B) {
	cfg := noc.DefaultConfig()
	net, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	layout := net.Layout()
	const victim = 5 // an interior router: 4 infected inbound links
	for _, l := range net.Links() {
		if l.To != victim {
			continue
		}
		ht := taspht.New(tasp.ForDest(victim), taspht.DefaultPayloadBits, layout)
		ht.SetKillSwitch(true)                     // arm: Idle trojans never strike
		net.SetWire(l.ID, &noc.PlainWire{Tap: ht}) // unmitigated: the DoS runs unchecked (Figure 11)
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
	for i := 0; i < 500; i++ { // warm up into the congested steady state
		inject()
		net.Step()
	}
	if net.Counters.Retransmissions == 0 {
		b.Fatal("trojan inactive: no retransmissions during warm-up")
	}
	start := net.Counters.Retransmissions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
		net.Step()
	}
	b.ReportMetric(float64(net.Counters.Retransmissions-start)/float64(b.N), "retrans/cycle")
}
