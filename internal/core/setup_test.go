package core_test

import (
	"math"
	"testing"

	"tasp/internal/core"
	"tasp/internal/noc"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
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

// TestPlacementLoadsMatchOracle: on every platform of the scale, sweep and
// secure workloads, the attacker's analytic loads over the network's own
// route table and link list are bit for bit the loads of the walk that
// built its own table and port map, for every target kind.
func TestPlacementLoadsMatchOracle(t *testing.T) {
	type platform struct {
		cfg   noc.Config
		bench string
	}
	seen := map[platform]bool{}
	for _, w := range []string{"scale", "sweep", "secure"} {
		for _, c := range lowerGrid(t, "../../bench/workloads/"+w+".json") {
			p := platform{c.Noc, c.Benchmark}
			if seen[p] {
				continue
			}
			seen[p] = true
			net, err := noc.New(c.Noc)
			if err != nil {
				t.Fatal(err)
			}
			m, err := traffic.Benchmark(c.Benchmark, c.Noc)
			if err != nil {
				t.Fatal(err)
			}
			last := uint8(c.Noc.Routers() - 1)
			for _, target := range []tasp.Target{
				tasp.ForDest(0), tasp.ForDest(last), tasp.ForSrc(last / 2), tasp.ForDestSrc(last/2, 0),
				tasp.ForFull(last, last/2, 1, 0x1000, 0xffff), tasp.ForMem(0x2000, 0xff00), tasp.ForVC(1),
			} {
				keep := core.FlowMatcher(target)
				got := traffic.LinkLoadsWhere(m, net.DefaultRoute(), net.LinkSlice(), keep)
				want := core.LinkLoadsOracle(m, c.Noc, keep)
				if len(got) != len(want) {
					t.Fatalf("%s on %s %dx%d: %d loads, oracle %d", w, c.Noc.Topo, c.Noc.Width, c.Noc.Height, len(got), len(want))
				}
				for id := range want {
					if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
						t.Fatalf("%s on %s %dx%d, %s, target %+v: link %d load %v, oracle %v",
							w, c.Noc.Topo, c.Noc.Width, c.Noc.Height, c.Benchmark, target, id, got[id], want[id])
					}
				}
			}
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d platforms in the workloads", len(seen))
	}
}
