package exp

import (
	"fmt"

	"tasp/internal/campaign"
	"tasp/internal/power"
)

// Headline checks the paper's abstract/conclusion claims in one pass and
// renders a claim-by-claim comparison. It is the summary row of
// EXPERIMENTS.md.
func Headline(seed uint64) (Table, error) {
	t := Table{
		Title:   "Headline claims: paper vs this reproduction",
		Columns: []string{"claim", "paper", "measured"},
	}

	// Hardware claims.
	r := power.BuildRouter(power.DefaultRouterParams())
	ht := power.BuildTASP(power.TASPFull)
	t.Rows = append(t.Rows, []string{
		"TASP footprint relative to one router (area)", "<1%",
		pct(ht.Area() / r.Area()),
	})
	p := power.DefaultRouterParams()
	p.WithMitigation = true
	sec := power.BuildRouter(p)
	t.Rows = append(t.Rows, []string{
		"mitigation area overhead", "2%", pct(sec.Area()/r.Area() - 1),
	})
	t.Rows = append(t.Rows, []string{
		"mitigation power overhead", "6%",
		pct(sec.Dynamic(power.DefaultFreqGHz)/r.Dynamic(power.DefaultFreqGHz) - 1),
	})

	// Attack potency and mitigation efficacy (Figure 11 protocol): the
	// attack unmitigated, under s2s L-Ob, and with no trojan.
	lo := figure11Scenario(seed)
	lo.Mitigation = "s2s-lob"
	clean := figure11Scenario(seed)
	clean.Attack.Kind = "none"
	runs, err := newScenarios().runAll([]campaign.Scenario{figure11Scenario(seed), lo, clean})
	if err != nil {
		return t, err
	}
	res, lores, cres := runs[0], runs[1], runs[2]
	last := res.Samples[len(res.Samples)-1]
	R := res.Config.Noc.Routers()
	t.Rows = append(t.Rows, []string{
		">=1 blocked port on routers, <1500 cycles after enable", "68% (11/16)",
		fmt.Sprintf("%d/%d (%s)", last.BlockedRouters, R, pct(float64(last.BlockedRouters)/float64(R))),
	})
	t.Rows = append(t.Rows, []string{
		"injection ports (>50% cores full) deadlocked by 1500 cycles", "81% (13/16)",
		fmt.Sprintf("%d/%d (%s)", last.HalfCoresFull, R, pct(float64(last.HalfCoresFull)/float64(R))),
	})

	t.Rows = append(t.Rows, []string{
		"throughput under attack with s2s L-Ob (vs clean)", "graceful (1-3 cycle penalty)",
		fmt.Sprintf("%.3f vs %.3f pkt/cyc (%s)", lores.Throughput, cres.Throughput,
			pct(lores.Throughput/cres.Throughput)),
	})
	t.Rows = append(t.Rows, []string{
		"throughput under attack without mitigation (vs clean)", "chip-scale deadlock",
		fmt.Sprintf("%.3f vs %.3f pkt/cyc (%s)", res.Throughput, cres.Throughput,
			pct(res.Throughput/cres.Throughput)),
	})
	return t, nil
}
