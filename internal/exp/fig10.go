package exp

import (
	"fmt"

	"tasp/internal/core"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// Figure10Benches are the traces the paper sweeps in Figure 10.
var Figure10Benches = []string{"blackscholes", "facesim", "ferret", "fft"}

// Figure10Fracs are the infected-link fractions of the x axis.
var Figure10Fracs = []float64{0, 0.05, 0.10, 0.15}

// Figure10Point is one bar of Figure 10: the throughput of continuing to
// use infected links under s2s L-Ob versus disabling them and rerouting
// (Ariadne), normalised to the rerouting baseline ("speedup").
type Figure10Point struct {
	Benchmark    string
	InfectedFrac float64
	InfectedNum  int
	TputLOb      float64 // packets/cycle with s2s obfuscation
	TputReroute  float64 // packets/cycle with rerouting
	Speedup      float64 // TputLOb / TputReroute
}

// RunFigure10 sweeps the benchmarks and infected-link fractions. The trojan
// targets each benchmark's primary router; infected links are the
// target-flow-hottest ones (Section III-A placement). links48 is the total
// directed link count (48 for the 4x4 mesh).
func RunFigure10(seed uint64) ([]Figure10Point, error) {
	// Cell c of the bench x frac grid is points 2c (s2s L-Ob) and 2c+1
	// (rerouting).
	var cfgs []core.ExperimentConfig
	for _, bench := range Figure10Benches {
		m, err := traffic.Benchmark(bench, core.DefaultExperiment().Noc)
		if err != nil {
			return nil, fmt.Errorf("fig10: %w", err)
		}
		for _, frac := range Figure10Fracs {
			nLinks := int(frac*float64(48) + 0.5)
			base := core.DefaultExperiment()
			base.Benchmark, base.Seed = bench, seed
			base.Attack.Enabled = nLinks > 0
			if nLinks > 0 {
				base.Attack.NumLinks = nLinks
			}
			// Target the benchmark's primary core region.
			base.Attack.Target = tasp.ForDest(uint8(m.Primary))

			lob, rr := base, base
			lob.Mitigation = core.S2SLOb
			rr.Mitigation = core.Rerouting
			cfgs = append(cfgs, lob, rr)
		}
	}
	res, err := newScenarios().runConfigs(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	out := make([]Figure10Point, 0, len(cfgs)/2)
	for _, bench := range Figure10Benches {
		for _, frac := range Figure10Fracs {
			rl, rr := res[2*len(out)], res[2*len(out)+1]
			p := Figure10Point{
				Benchmark:    bench,
				InfectedFrac: frac,
				InfectedNum:  len(rl.InfectedLinks),
				TputLOb:      rl.Throughput,
				TputReroute:  rr.Throughput,
			}
			if p.TputReroute > 0 {
				p.Speedup = p.TputLOb / p.TputReroute
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// Figure10Table renders the sweep.
func Figure10Table(points []Figure10Point) Table {
	t := Table{
		Title:   "Figure 10: speedup of continuing to use infected links with s2s L-Ob vs rerouting around them (Ariadne)",
		Columns: []string{"benchmark", "infected", "links", "tput l-ob", "tput reroute", "speedup"},
		Notes: []string{
			"speedup > 1 means keeping the link alive under obfuscation beats paying reroute detours and lost capacity",
		},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Benchmark, pct(p.InfectedFrac), fmt.Sprintf("%d", p.InfectedNum),
			f3(p.TputLOb), f3(p.TputReroute), f2(p.Speedup),
		})
	}
	return t
}
