package exp

import (
	"testing"

	"tasp/internal/core"
)

// TestCrossTopologyAttack runs a shortened Figure 11 protocol on torus and
// ring substrates and checks the attack's qualitative signature carries
// over: the attacker finds links to infect, the TASP trojans fire, and
// throughput drops under attack. (The cross-substrate severity ordering
// needs the full 1500-cycle saturation protocol and is reported by the
// campaign's cross-topology preset, not asserted here.)
func TestCrossTopologyAttack(t *testing.T) {
	run := func(topo string, attack bool) *core.Results {
		t.Helper()
		cfg := core.DefaultExperiment()
		cfg.Seed = 7
		cfg.Noc.Topo = topo
		cfg.Warmup, cfg.Measure = 500, 700
		cfg.Attack.Enabled = attack
		res, err := core.Run(cfg)
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
