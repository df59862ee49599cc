package core_test

import (
	"testing"

	"tasp/internal/core"
)

// BenchmarkPlatformSetup measures what the end-to-end benchmark's setup_s
// times for a 256-router platform: a fresh Runner's zero-cycle RunInto of
// the 16x16 mesh and torus attacked points of bench/workloads/scale.json
// (the first seed's, as setup_s takes them), which builds the network, the
// benchmark traffic model and the attacker's placement. Set-up allocates
// by design, so the allocation gate leaves this benchmark out.
func BenchmarkPlatformSetup(b *testing.B) {
	cfgs := lowerGrid(b, "../../bench/workloads/scale.json")
	for _, topo := range []string{"mesh", "torus"} {
		var cfg core.ExperimentConfig
		found := false
		for _, c := range cfgs {
			if c.Noc.Topo == topo && c.Noc.Width == 16 && c.Attack.Enabled && c.Seed == cfgs[0].Seed {
				cfg, found = c, true
				break
			}
		}
		if !found {
			b.Fatalf("scale.json holds no 16x16 %s attacked point", topo)
		}
		cfg.Warmup, cfg.Measure = 0, 0
		b.Run(topo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := core.NewRunner().RunInto(cfg, &core.Results{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
