package core

import "testing"

// TestCrossTopologyAttack runs a shortened Figure 11 protocol on torus and
// ring substrates and checks the attack's qualitative signature carries
// over: the attacker finds links to infect, the TASP trojans fire, and
// throughput drops under attack. (The cross-substrate severity ordering
// needs the full 1500-cycle saturation protocol and is reported by the
// campaign's cross-topology preset, not asserted here.)
func TestCrossTopologyAttack(t *testing.T) {
	run := func(topo string, attack bool) *Results {
		t.Helper()
		cfg := DefaultExperiment()
		cfg.Seed = 7
		cfg.Noc.Topo = topo
		cfg.Warmup, cfg.Measure = 500, 700
		cfg.Attack.Enabled = attack
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s (attack=%v): %v", topo, attack, err)
		}
		return res
	}
	for _, topo := range []string{"torus", "ring"} {
		clean := run(topo, false)
		attacked := run(topo, true)
		if len(attacked.InfectedLinks) == 0 {
			t.Fatalf("%s: attacker found no links to infect", topo)
		}
		if attacked.HTInjections == 0 {
			t.Fatalf("%s: trojans never fired", topo)
		}
		if attacked.Throughput >= clean.Throughput {
			t.Fatalf("%s: attacked throughput %.3f not below clean %.3f",
				topo, attacked.Throughput, clean.Throughput)
		}
	}
}

// TestScaledMeshAttack runs a shortened Figure 11 protocol on the
// 8x8/256-core mesh and checks the attack's qualitative signature holds on
// the scaled substrate with its wider header layout: the attacker finds
// links, the trojans (compiled against 6-bit router ids) fire, throughput
// drops under attack, and S2S L-Ob recovers it. Determinism is asserted by
// running the attacked configuration twice.
func TestScaledMeshAttack(t *testing.T) {
	run := func(attack bool, mit Mitigation) *Results {
		t.Helper()
		cfg := DefaultExperiment()
		cfg.Seed = 7
		cfg.Noc.Width, cfg.Noc.Height = 8, 8
		cfg.Warmup, cfg.Measure = 500, 700
		cfg.Attack.Enabled = attack
		cfg.Mitigation = mit
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("8x8 (attack=%v, mit=%v): %v", attack, mit, err)
		}
		return res
	}
	clean := run(false, NoMitigation)
	attacked := run(true, NoMitigation)
	defended := run(true, S2SLOb)
	if len(attacked.InfectedLinks) == 0 {
		t.Fatal("attacker found no links to infect on the 8x8 mesh")
	}
	if attacked.HTInjections == 0 {
		t.Fatal("trojans never fired on the 8x8 mesh")
	}
	if attacked.Throughput >= clean.Throughput {
		t.Fatalf("attacked throughput %.3f not below clean %.3f",
			attacked.Throughput, clean.Throughput)
	}
	if defended.Throughput <= attacked.Throughput {
		t.Fatalf("defended throughput %.3f not above attacked %.3f",
			defended.Throughput, attacked.Throughput)
	}
	again := run(true, NoMitigation)
	if again.Throughput != attacked.Throughput || again.HTInjections != attacked.HTInjections {
		t.Fatalf("8x8 attacked run not deterministic: tput %.6f vs %.6f, injections %d vs %d",
			again.Throughput, attacked.Throughput, again.HTInjections, attacked.HTInjections)
	}
}
