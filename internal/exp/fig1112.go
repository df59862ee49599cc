package exp

import (
	"fmt"

	"tasp/internal/core"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// Figure11 holds the two runs of the paper's Figure 11: (a) a single active
// TASP attack point with no effective mitigation (e2e obfuscation fails on
// routing-field triggers) and (b) the same workload with no trojan.
type Figure11 struct {
	Attacked *core.Results
	Healthy  *core.Results
}

// RunFigure11 executes both runs with the paper's protocol: Blackscholes
// traces, 1500-cycle warm-up, then the kill switch.
func RunFigure11(seed uint64) (*Figure11, error) {
	atk := core.DefaultExperiment()
	atk.Seed = seed
	atk.Mitigation = core.E2EObfuscation // present but ineffective, as in 11(a)
	clean := atk
	clean.Mitigation = core.NoMitigation
	clean.Attack.Enabled = false
	res, err := newScenarios().runConfigs([]core.ExperimentConfig{atk, clean})
	if err != nil {
		return nil, err
	}
	return &Figure11{Attacked: res[0], Healthy: res[1]}, nil
}

// seriesTable renders one run's occupancy time series.
func seriesTable(title string, res *core.Results, every int) Table {
	t := Table{
		Title: title,
		Columns: []string{"cycle", "input util", "output util", "injection util",
			">=1 port blocked", "all cores full", ">50% cores full"},
	}
	for i, s := range res.Samples {
		if i%every != 0 && i != len(res.Samples)-1 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s.Cycle),
			fmt.Sprintf("%d", s.InputFlits),
			fmt.Sprintf("%d", s.OutputFlits),
			fmt.Sprintf("%d", s.InjectionFlit),
			fmt.Sprintf("%d", s.BlockedRouters),
			fmt.Sprintf("%d", s.AllCoresFull),
			fmt.Sprintf("%d", s.HalfCoresFull),
		})
	}
	return t
}

// Tables renders Figure 11(a) and 11(b).
func (f *Figure11) Tables() []Table {
	a := seriesTable("Figure 11(a): single active TASP attack point, e2e obfuscation failing (no s2s mitigation)", f.Attacked, 4)
	a.Notes = append(a.Notes,
		fmt.Sprintf("trojan matches=%d injections=%d; throughput %.3f pkt/cyc",
			f.Attacked.HTMatches, f.Attacked.HTInjections, f.Attacked.Throughput))
	b := seriesTable("Figure 11(b): no trojan (normal operation)", f.Healthy, 4)
	b.Notes = append(b.Notes, fmt.Sprintf("throughput %.3f pkt/cyc", f.Healthy.Throughput))
	return []Table{a, b}
}

// Figure12 holds the paper's Figure 12: (a) a TDM QoS NoC with the trojan
// striking one domain, and (b) the proposed threat detector + s2s L-Ob.
type Figure12 struct {
	TDM *core.Results
	LOb *core.Results
}

// RunFigure12 executes both runs.
func RunFigure12(seed uint64) (*Figure12, error) {
	cfg := core.DefaultExperiment()
	cfg.Seed = seed
	cfg.Mitigation = core.TDMQoS
	// TDM halves per-domain bandwidth; run at a rate it sustains cleanly.
	m, err := traffic.Benchmark(cfg.Benchmark, cfg.Noc)
	if err != nil {
		return nil, err
	}
	m.Rate = 0.03
	cfg.Model = m
	// The trojan targets domain 2 (the upper half of the VCs).
	cfg.Attack.Target = tasp.ForVCRange(2, 0b10)
	cfg.Attack.NumLinks = 4

	lo := core.DefaultExperiment()
	lo.Seed = seed
	lo.Mitigation = core.S2SLOb
	res, err := newScenarios().runConfigs([]core.ExperimentConfig{cfg, lo})
	if err != nil {
		return nil, err
	}
	return &Figure12{TDM: res[0], LOb: res[1]}, nil
}

// Tables renders Figure 12(a) with per-domain series and 12(b).
func (f *Figure12) Tables() []Table {
	a := Table{
		Title: "Figure 12(a): TDM QoS (two domains) under a TASP attack on domain 2",
		Columns: []string{"cycle",
			"D1 in", "D1 out", "D1 injq", "D1 allfull",
			"D2 in", "D2 out", "D2 injq", "D2 allfull"},
	}
	for i, s := range f.TDM.Samples {
		if i%4 != 0 && i != len(f.TDM.Samples)-1 {
			continue
		}
		d1, d2 := s.Domain[0], s.Domain[1]
		a.Rows = append(a.Rows, []string{
			fmt.Sprintf("%d", s.Cycle),
			fmt.Sprintf("%d", d1.InputFlits), fmt.Sprintf("%d", d1.OutputFlits),
			fmt.Sprintf("%d", d1.InjectionFlit), fmt.Sprintf("%d", d1.AllCoresFull),
			fmt.Sprintf("%d", d2.InputFlits), fmt.Sprintf("%d", d2.OutputFlits),
			fmt.Sprintf("%d", d2.InjectionFlit), fmt.Sprintf("%d", d2.AllCoresFull),
		})
	}
	a.Notes = append(a.Notes,
		"the attack saturates domain 2's injection while domain 1 keeps operating — contained, but D2 still deadlocks")

	b := seriesTable("Figure 12(b): proposed threat detector + s2s L-Ob", f.LOb, 4)
	b.Notes = append(b.Notes, fmt.Sprintf(
		"detections: %v; obfuscated traversals=%d; total undo stall=%d cycles; throughput %.3f pkt/cyc",
		len(f.LOb.Detections), f.LOb.Obfuscated, f.LOb.StallCycles, f.LOb.Throughput))
	return []Table{a, b}
}
