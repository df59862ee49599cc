package exp

import (
	"fmt"

	"tasp/internal/campaign"
	"tasp/internal/locate"
	"tasp/internal/noc"
)

// timeToLocalize scans the rank-1 trace for the earliest sample from which
// the verdict stays inside the infected set for the rest of the run, and
// returns the delay from attack enable (ok=false when localization never
// settled on an infected link).
func timeToLocalize(trace []locate.TraceSample, infected []int, enableAt uint64) (uint64, bool) {
	in := map[int]bool{}
	for _, id := range infected {
		in[id] = true
	}
	settled, ok := uint64(0), false
	for i := len(trace) - 1; i >= 0; i-- {
		if !in[trace[i].LinkID] {
			break
		}
		settled, ok = trace[i].Cycle, true
	}
	if !ok {
		return 0, false
	}
	return settled - enableAt, true
}

// rankHit reports whether the top-ranked suspect is an infected link.
func rankHit(suspects []locate.Suspect, infected []int) bool {
	if len(suspects) == 0 {
		return false
	}
	for _, id := range infected {
		if suspects[0].LinkID == id {
			return true
		}
	}
	return false
}

// AblationLocate runs the Figure 11 attack protocol (blackscholes, TASP on
// the two hottest dest-0 links, 1500-cycle warm-up, no effective mitigation
// so the saturation tree grows unchecked) on every substrate with the
// localization layer on, and reports whether the fused ranking pins the
// infected link set: rank-1 accuracy, confidence, time-to-localize, and the
// telemetry-only ablation (detector evidence zeroed — localization from
// blocked-port telemetry and topology structure alone).
func AblationLocate(seed uint64) (Table, error) {
	t := Table{
		Title: "Extension: topology-aware DoS localization (Figure 11 protocol per substrate, locate layer on)",
		Columns: []string{
			"topology", "infected", "rank-1", "hit", "confidence",
			"t-localize", "rank-1 (telemetry-only)", "hit",
		},
		Notes: []string{
			"rank-1 = the locate engine's top suspect at run end; hit = it is an infected link; confidence = normalized margin over rank-2",
			"t-localize = cycles after attack enable until the per-sample rank-1 verdict settles inside the infected set",
			"telemetry-only zeroes the detector/NACK component: blocked-port telemetry + structural priors alone",
		},
	}
	topos := noc.Topologies()
	scs := make([]campaign.Scenario, len(topos))
	for i, topo := range topos {
		scs[i] = figure11Scenario(seed)
		scs[i].Topology = topo
		scs[i].Locate = true
	}
	runs, err := newScenarios().runAll(scs)
	if err != nil {
		return t, err
	}
	for i, topo := range topos {
		res := runs[i]
		n, err := noc.New(res.Config.Noc)
		if err != nil {
			return t, fmt.Errorf("%s: %w", topo, err)
		}
		links := n.LinkSlice()
		name := func(s []locate.Suspect) string {
			if len(s) == 0 {
				return "-"
			}
			return fmt.Sprintf("%d (%s)", s[0].LinkID, links[s[0].LinkID])
		}
		ttl := "never"
		if d, ok := timeToLocalize(res.SuspectTrace, res.InfectedLinks, uint64(res.Config.Warmup)); ok {
			ttl = fmt.Sprintf("%d cyc", d)
		}
		t.Rows = append(t.Rows, []string{
			topo,
			fmt.Sprintf("%v", res.InfectedLinks),
			name(res.Suspects),
			yes(rankHit(res.Suspects, res.InfectedLinks)),
			fmt.Sprintf("%.2f", res.Suspects[0].Confidence),
			ttl,
			name(res.SuspectsTelemetry),
			yes(rankHit(res.SuspectsTelemetry, res.InfectedLinks)),
		})
	}
	return t, nil
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
