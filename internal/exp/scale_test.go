package exp

import (
	"testing"

	"tasp/internal/core"
)

// TestScaledMeshAttack runs a shortened Figure 11 protocol on the
// 8x8/256-core mesh and checks the attack's qualitative signature holds on
// the scaled substrate with its wider header layout: the attacker finds
// links, the trojans (compiled against 6-bit router ids) fire, throughput
// drops under attack, and S2S L-Ob recovers it. Determinism is asserted by
// running the attacked configuration twice.
func TestScaledMeshAttack(t *testing.T) {
	run := func(attack bool, mit core.Mitigation) *core.Results {
		t.Helper()
		cfg := core.DefaultExperiment()
		cfg.Seed = 7
		cfg.Noc.Width, cfg.Noc.Height = 8, 8
		cfg.Warmup, cfg.Measure = 500, 700
		cfg.Attack.Enabled = attack
		cfg.Mitigation = mit
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("8x8 (attack=%v, mit=%v): %v", attack, mit, err)
		}
		return res
	}
	clean := run(false, core.NoMitigation)
	attacked := run(true, core.NoMitigation)
	defended := run(true, core.S2SLOb)
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
	again := run(true, core.NoMitigation)
	if again.Throughput != attacked.Throughput || again.HTInjections != attacked.HTInjections {
		t.Fatalf("8x8 attacked run not deterministic: tput %.6f vs %.6f, injections %d vs %d",
			again.Throughput, attacked.Throughput, again.HTInjections, attacked.HTInjections)
	}
}
