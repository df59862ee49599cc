package exp

import (
	"fmt"

	"tasp/internal/campaign"
	"tasp/internal/detect"
	"tasp/internal/noc"
)

// AblationAdversary runs the quiet trojan families — the ACK-forging dropper
// and the header-rewriting misrouter — under the Figure 11 protocol on every
// supported substrate, with secure-ack monitoring and the localization layer
// observing. Neither family ever raises a NACK, so the paper's fault-
// triggered detector is structurally blind to both; the table shows the
// secure-ack monitor convicting the infected links and the ack-gap evidence
// carrying the locate ranking to them instead.
func AblationAdversary(seed uint64) (Table, error) {
	t := Table{
		Title: "Extension: drop/misroute trojans vs secure-ack monitoring across topologies (Figure 11 protocol per substrate)",
		Columns: []string{
			"topology", "mode", "infected", "clean tput", "attacked tput", "retained",
			"victim goodput", "strikes", "inflight drops", "ack verdicts", "rank-1",
		},
		Notes: []string{
			"drop: matched heads are swallowed with a forged link ACK; the beheaded packets' bodies die as orphans downstream, and no NACK ever fires",
			"misroute: matched heads are re-encoded with the hijack router's id; SECDED decodes clean and delivery simply lands at the wrong tile",
			"ack verdicts: secure-ack monitor convictions on the infected links (sent/received gap windows for droppers, route-conformance violations for misrouters)",
			"rank-1: whether the locate engine's top suspect is an infected link, from ack-gap/violation evidence plus structural priors — no detector verdicts exist on these runs",
		},
	}
	// Per topology: the clean baseline, then one point per trojan mode.
	modes := []string{"drop", "misroute"}
	topos := noc.Topologies()
	var scs []campaign.Scenario
	for _, topo := range topos {
		mk := func(mode string) campaign.Scenario {
			sc := figure11Scenario(seed)
			sc.Topology = topo
			sc.Mitigation = "none"
			if mode == "none" {
				sc.Attack.Kind = "none"
			} else {
				sc.Attack.Mode = mode
			}
			sc.SecureAck = mode != "none"
			sc.Locate = mode != "none"
			return sc
		}
		scs = append(scs, mk("none"))
		for _, mode := range modes {
			scs = append(scs, mk(mode))
		}
	}
	runs, err := newScenarios().runAll(scs)
	if err != nil {
		return t, err
	}
	for ti, topo := range topos {
		clean := runs[ti*(1+len(modes))]
		cleanTput, cleanVictim := clean.Throughput, clean.VictimDelivered
		for mi, mode := range modes {
			res := runs[ti*(1+len(modes))+1+mi]
			verdicts := 0
			for _, id := range res.InfectedLinks {
				if c := res.AckVerdicts[id]; c == detect.AckDropper || c == detect.AckMisroute {
					verdicts++
				}
			}
			rank1 := "miss"
			if len(res.Suspects) > 0 {
				for _, id := range res.InfectedLinks {
					if res.Suspects[0].LinkID == id {
						rank1 = fmt.Sprintf("hit (link %d)", id)
						break
					}
				}
			}
			t.Rows = append(t.Rows, []string{
				topo,
				mode,
				fmt.Sprintf("%v", res.InfectedLinks),
				f3(cleanTput),
				f3(res.Throughput),
				pct(res.Throughput / cleanTput),
				fmt.Sprintf("%d/%d", res.VictimDelivered, cleanVictim),
				fmt.Sprintf("%d", res.HTInjections),
				fmt.Sprintf("%d", res.Final.DroppedInFlight),
				fmt.Sprintf("%d/%d", verdicts, len(res.InfectedLinks)),
				rank1,
			})
		}
	}
	return t, nil
}
