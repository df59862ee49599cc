package core

import (
	"testing"

	"tasp/internal/detect"
	"tasp/internal/noc"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// quickExp shrinks the default protocol for test runtime.
func quickExp() ExperimentConfig {
	cfg := DefaultExperiment()
	cfg.Warmup = 1500
	cfg.Measure = 1500
	return cfg
}

func TestRunNoAttack(t *testing.T) {
	cfg := quickExp()
	cfg.Attack.Enabled = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.DeliveredPackets == 0 {
		t.Fatal("no packets delivered")
	}
	if res.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
	if len(res.InfectedLinks) != 0 || res.HTInjections != 0 {
		t.Fatal("attack artefacts present in clean run")
	}
	// A healthy network must not build up persistent back-pressure. (The
	// hot region around the primary router may keep one router's cores
	// throttled — visible in Figure 11(b)'s nonzero baseline — but nothing
	// chip-wide.)
	last := res.Samples[len(res.Samples)-1]
	if last.BlockedRouters > 1 || last.AllCoresFull > 1 {
		t.Fatalf("healthy run shows pressure: %+v", last.Occupancy)
	}
}

// TestFigure11Deadlock reproduces the paper's headline result: a single
// TASP trojan with no mitigation deadlocks most of the chip. The paper
// reports back-pressure on 68% (11/16) of routers within 50-100 cycles of
// enabling TASP and 81% (13/16) of injection ports within 1500 cycles.
func TestFigure11Deadlock(t *testing.T) {
	cfg := quickExp()
	cfg.Mitigation = NoMitigation
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HTInjections == 0 {
		t.Fatal("trojan never struck")
	}
	// Back-pressure must appear quickly after the kill switch (the paper
	// reports 68% of routers within 50-100 cycles; our stall detector needs
	// 50 progress-free cycles before it even counts a port, so assert 8+
	// routers within 500 cycles)...
	fast := false
	for _, s := range res.Samples {
		if s.Cycle <= 2000 && s.BlockedRouters >= 8 {
			fast = true
			break
		}
	}
	if !fast {
		t.Error("back-pressure did not reach half the chip within 500 cycles of enable")
	}
	// ...and grow to most of the chip by 1500 cycles (paper: 11/16 routers,
	// 13/16 injection ports).
	last := res.Samples[len(res.Samples)-1]
	if last.BlockedRouters < 10 {
		t.Fatalf("only %d/16 routers blocked 1500 cycles after enable, paper reports 11+", last.BlockedRouters)
	}
	if last.HalfCoresFull < 10 {
		t.Fatalf("only %d/16 routers have >50%% cores full, paper reports 13", last.HalfCoresFull)
	}
	// Throughput during the attack must collapse versus the clean run.
	clean := cfg
	clean.Attack.Enabled = false
	base, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > base.Throughput*0.7 {
		t.Fatalf("attack throughput %.3f not collapsed vs clean %.3f", res.Throughput, base.Throughput)
	}
}

// TestFigure12LObMitigation reproduces Figure 12(b): with the threat
// detector + L-Ob, a single TASP trojan causes only a few-cycle penalty and
// the network keeps flowing.
func TestFigure12LObMitigation(t *testing.T) {
	cfg := quickExp()
	cfg.Mitigation = S2SLOb
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.BlockedRouters > 1 {
		t.Fatalf("%d routers blocked under L-Ob, want ~0", last.BlockedRouters)
	}
	if last.AllCoresFull > 3 {
		t.Fatalf("%d routers with all cores full under L-Ob — the hot region may throttle, the chip must not", last.AllCoresFull)
	}
	// The trojan must have been found.
	foundTrojan := false
	for _, cl := range res.Detections {
		if cl == detect.Trojan {
			foundTrojan = true
		}
	}
	if !foundTrojan {
		t.Fatalf("trojan not classified; detections: %v", res.Detections)
	}
	if res.Obfuscated == 0 || res.BISTScans == 0 {
		t.Fatal("mitigation hardware unused")
	}
	// Throughput must stay close to the clean baseline.
	clean := cfg
	clean.Attack.Enabled = false
	base, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < base.Throughput*0.8 {
		t.Fatalf("L-Ob throughput %.3f fell below 80%% of clean %.3f", res.Throughput, base.Throughput)
	}
}

// TestFigure12TDMContainment reproduces Figure 12(a): with two TDM domains,
// a trojan striking domain-2 traffic saturates D2's resources while D1
// keeps operating.
func TestFigure12TDMContainment(t *testing.T) {
	cfg := quickExp()
	cfg.Mitigation = TDMQoS
	// TDM halves each domain's bandwidth, so run at a rate the TDM network
	// sustains cleanly before the attack.
	m, err := traffic.Benchmark("blackscholes", cfg.Noc)
	if err != nil {
		t.Fatal(err)
	}
	m.Rate = 0.03
	cfg.Model = m
	// Target the upper VC pair — the whole of domain 2 (VCs 2,3).
	cfg.Attack.Target = tasp.ForVCRange(2, 0b10)
	cfg.Attack.NumLinks = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HTInjections == 0 {
		t.Fatal("trojan never struck in the TDM run")
	}
	last := res.Samples[len(res.Samples)-1]
	d1, d2 := last.Domain[0], last.Domain[1]
	if d2.InputFlits+d2.OutputFlits <= (d1.InputFlits+d1.OutputFlits)*2 {
		t.Fatalf("attacked domain not saturated: D1=%d D2=%d buffered flits",
			d1.InputFlits+d1.OutputFlits, d2.InputFlits+d2.OutputFlits)
	}
	if d1.AllCoresFull > 1 {
		t.Fatalf("containment failed: %d clean-domain routers have all cores full", d1.AllCoresFull)
	}
}

// TestE2EObfuscationFailsOnRoutingTargets reproduces the premise of Figure
// 11(a): e2e obfuscation cannot hide routing fields, so a Dest-triggered
// trojan still fires and the chip still deadlocks.
func TestE2EObfuscationFailsOnRoutingTargets(t *testing.T) {
	cfg := quickExp()
	cfg.Mitigation = E2EObfuscation
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HTInjections == 0 {
		t.Fatal("dest-triggered trojan was hidden by e2e obfuscation — it must not be")
	}
	last := res.Samples[len(res.Samples)-1]
	if last.BlockedRouters < 8 {
		t.Fatalf("e2e run should deadlock like the unprotected one, blocked=%d", last.BlockedRouters)
	}
}

// TestE2EObfuscationHidesMemTargets shows the complementary case: a trojan
// triggering on memory addresses strikes far less often when e2e scrambles
// them — only chance aliasing (including body flits that happen to look
// like matching headers) remains.
func TestE2EObfuscationHidesMemTargets(t *testing.T) {
	// A sharp 16-bit window over the primary router's region: every dest-0
	// request matches in plaintext (their top 16 address bits are zero),
	// while scrambled addresses or aliasing body flits almost never do.
	target := tasp.ForMem(0, 0xffff0000)
	cfg := quickExp()
	cfg.Attack.Target = target
	cfg.Mitigation = NoMitigation
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mitigation = E2EObfuscation
	e2e, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.HTMatches == 0 {
		t.Fatal("mem-triggered trojan never matched in the unprotected run")
	}
	if e2e.HTMatches*3 > bare.HTMatches {
		t.Fatalf("e2e scrambling left %d matches vs %d unprotected — no real reduction",
			e2e.HTMatches, bare.HTMatches)
	}
}

// TestReroutingRecoversSlower reproduces the Figure 10 relationship: the
// rerouting baseline survives the attack (after reconfiguration) but yields
// less throughput than continuing to use the link under L-Ob.
func TestReroutingRecoversSlower(t *testing.T) {
	cfg := quickExp()
	cfg.Attack.NumLinks = 3
	cfg.Mitigation = Rerouting
	rr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.ReroutedAt == 0 {
		t.Fatal("rerouting baseline never reconfigured")
	}
	cfg.Mitigation = S2SLOb
	lo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Throughput <= rr.Throughput {
		t.Fatalf("L-Ob (%.3f pkt/cyc) not faster than rerouting (%.3f pkt/cyc)",
			lo.Throughput, rr.Throughput)
	}
}

func TestChooseInfectedLinksPrefersHotLinks(t *testing.T) {
	cfg := quickExp()
	res, err := Run(ExperimentConfig{
		Noc: cfg.Noc, Benchmark: "blackscholes", Seed: 1,
		Warmup: 10, Measure: 10,
		Attack: AttackConfig{Enabled: true, NumLinks: 4, Target: tasp.ForDest(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InfectedLinks) != 4 {
		t.Fatalf("picked %d links, want 4", len(res.InfectedLinks))
	}
	// The hottest blackscholes links neighbour the primary router 0.
	n, err := noc.New(cfg.Noc)
	if err != nil {
		t.Fatal(err)
	}
	near := 0
	for _, id := range res.InfectedLinks {
		for _, l := range n.Links() {
			if l.ID == id && (l.From <= 5 || l.To <= 5) {
				near++
				break
			}
		}
	}
	if near < 3 {
		t.Fatalf("only %d/4 infected links near the primary region", near)
	}

	// On a torus 2 routers wide the mesh link and the wraparound link join
	// the same two routers; only the one the default route takes carries
	// target flows, so only it may be picked.
	tc := noc.DefaultConfig()
	tc.Topo, tc.Width, tc.Height = "torus", 2, 2
	tn, err := noc.New(tc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := traffic.Benchmark("blackscholes", tc)
	if err != nil {
		t.Fatal(err)
	}
	route := noc.RouteTable(tc.Topology())
	carries := map[int]bool{} // link ids some dest-0 flow crosses
	for s := 1; s < tc.Routers(); s++ {
		if m.Matrix[s][0] == 0 {
			continue
		}
		for cur := s; cur != 0; {
			port := route(cur, 0)
			for _, l := range tn.LinkSlice() {
				if l.From == cur && l.FromPort == port {
					carries[l.ID] = true
					cur = l.To
					break
				}
			}
		}
	}
	picked := ChooseInfectedLinks(m, tn, 2, tasp.ForDest(0))
	if len(picked) == 0 {
		t.Fatal("2x2 torus: no link picked")
	}
	for _, id := range picked {
		if !carries[id] {
			t.Errorf("2x2 torus: picked %s, which no dest-0 flow crosses", tn.LinkSlice()[id])
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := quickExp()
	cfg.Noc.VCs = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid noc config accepted")
	}
	cfg = quickExp()
	cfg.Benchmark = "nope"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMitigationStrings(t *testing.T) {
	want := map[Mitigation]string{
		NoMitigation: "none", S2SLOb: "s2s-lob", E2EObfuscation: "e2e-obfuscation",
		TDMQoS: "tdm-qos", Rerouting: "rerouting",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d = %q want %q", m, m.String(), s)
		}
	}
}
