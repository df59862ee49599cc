package campaign

import (
	"fmt"
	"slices"

	"tasp/internal/noc"
	"tasp/internal/tab"
)

// Preset is a named table over a spec's records. The name is shared three
// ways: specs/<name>.json runs the grid, `campaign aggregate -preset <name>`
// renders it, and testdata/golden/extension-<name>.txt pins its seed-1
// output.
type Preset struct {
	Name   string
	Render func([]Record) (tab.Table, error)
}

// Presets lists every preset, in the order the CLI and the golden test
// enumerate them.
func Presets() []Preset {
	return []Preset{
		{"cross-topology", CrossTopologyTable},
		{"scale", ScaleTable},
		{"locate", LocateTable},
		{"adversary", AdversaryTable},
		{"adaptive", AdaptiveTable},
	}
}

// figure11Row is one preset row: its label and the group in each Figure 11
// arm — clean (attack none, mitigation none), attacked (attack on,
// mitigation none) and defended (attack on, mitigation s2s-lob).
type figure11Row struct {
	label string
	arms  [3]*Group
}

// figure11Rows groups records into preset rows keyed by label, in the
// labels' first-appearance (grid) order, and sorts each row's groups into
// its three arms; groups that fit no arm are left out. Every row needs all
// three arms, and one arm holds one group: a second benchmark, dims or
// attack that the label does not display would otherwise overwrite the
// first silently, so it is an error naming both groups. Records that give
// no row are an error too, not a header-only table.
func figure11Rows(records []Record, preset string, label func(GroupKey) string) ([]figure11Row, error) {
	groups, err := Aggregate(records)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	var rows []figure11Row
	for i := range groups {
		g := &groups[i]
		var arm int
		switch {
		case g.Key.Attack == "none" && g.Key.Mitigation == "none":
			arm = 0
		case g.Key.Attack != "none" && g.Key.Mitigation == "none":
			arm = 1
		case g.Key.Attack != "none" && g.Key.Mitigation == "s2s-lob":
			arm = 2
		default:
			continue
		}
		name := label(g.Key)
		j, ok := index[name]
		if !ok {
			j = len(rows)
			index[name] = j
			rows = append(rows, figure11Row{label: name})
		}
		if prev := rows[j].arms[arm]; prev != nil {
			return nil, fmt.Errorf("%s preset, row %s: groups %q and %q fall into one arm", preset, name, prev.Key, g.Key)
		}
		rows[j].arms[arm] = g
	}
	for _, r := range rows {
		if r.arms[0] == nil || r.arms[1] == nil || r.arms[2] == nil {
			return nil, fmt.Errorf("%s preset, row %s: needs clean, attacked and s2s-lob arms", preset, r.label)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s preset: no row in the records (a row needs clean, attacked and s2s-lob arms)", preset)
	}
	return rows, nil
}

// figure11Columns heads the seven cells every Figure 11 preset row ends with.
var figure11Columns = []string{
	"infected", "clean tput", "attacked tput", "retained",
	"l-ob tput", "l-ob retained", "blocked (none)",
}

// cells renders a row's seven figure11Columns cells. Infected links and
// blocked routers come from the attacked arm's first record.
func (r figure11Row) cells() []string {
	clean, attacked, defended := r.arms[0], r.arms[1], r.arms[2]
	return []string{
		fmt.Sprintf("%v", attacked.First.InfectedLinks),
		tab.F3(clean.Throughput.Mean),
		tab.F3(attacked.Throughput.Mean),
		tab.Pct(attacked.Throughput.Mean / clean.Throughput.Mean),
		tab.F3(defended.Throughput.Mean),
		tab.Pct(defended.Throughput.Mean / clean.Throughput.Mean),
		fmt.Sprintf("%d/%d", attacked.First.BlockedRouters, attacked.First.Routers),
	}
}

// CrossTopologyTable renders the cross-topology attack table from campaign
// records (specs/cross-topology.json): the Figure 11 protocol on each
// substrate, one row per topology in grid order. Each topology needs the
// clean, attacked and defended arms (figure11Rows).
func CrossTopologyTable(records []Record) (tab.Table, error) {
	t := tab.Table{
		Title:   "Extension: attack potency and S2S L-Ob mitigation across topologies (Figure 11 protocol per substrate)",
		Columns: append([]string{"topology"}, figure11Columns...),
		Notes: []string{
			"same workload, seed and attacker strategy everywhere; trojan links are re-chosen per topology from the analytic target-flow loads",
			"torus and ring runs use dateline VC classes for deadlock freedom; wraparound path diversity shrinks the single-point-of-attack congestion tree, the ring's narrow bisection amplifies it",
		},
	}
	rows, err := figure11Rows(records, "cross-topology", func(k GroupKey) string { return k.Topology })
	if err != nil {
		return t, err
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, append([]string{r.label}, r.cells()...))
	}
	return t, nil
}

// ScaleTable renders the substrate-scaling table from campaign records
// (specs/scale.json): the Figure 11 protocol on each platform, one row per
// dims and topology in grid order. The router count, core count and header
// layout come from lowering the platform through Scenario.Config, so the
// table shows the layout the runs were compiled against.
func ScaleTable(records []Record) (tab.Table, error) {
	t := tab.Table{
		Title:   "Extension: TASP potency and S2S L-Ob recovery vs substrate scale (Figure 11 protocol per platform)",
		Columns: append([]string{"platform", "routers", "cores", "header"}, figure11Columns...),
		Notes: []string{
			"same workload family, seed and attacker strategy on both platforms; trojan links are re-chosen per platform from the analytic target-flow loads",
			"the 8x8 header layout widens the router-id fields to 6 bits, so the trojan taps and the L-Ob header window are compiled against the scaled layout",
			"scale amplifies the single point of attack: the larger mesh funnels four times the flows toward the victim's hotspot, so the wedged wormhole tree back-pressures nearly the whole substrate; S2S L-Ob still recovers >90% of clean throughput",
		},
	}
	rows, err := figure11Rows(records, "scale", func(k GroupKey) string {
		return fmt.Sprintf("%dx%d %s", k.Width, k.Height, k.Topology)
	})
	if err != nil {
		return t, err
	}
	for _, r := range rows {
		k := r.arms[0].Key
		cfg, err := Scenario{Topology: k.Topology, Width: k.Width, Height: k.Height}.Config()
		if err != nil {
			return t, fmt.Errorf("scale row %s: %w", r.label, err)
		}
		layout := cfg.Noc.Layout()
		t.Rows = append(t.Rows, append([]string{
			r.label,
			fmt.Sprintf("%d", cfg.Noc.Routers()),
			fmt.Sprintf("%d", cfg.Noc.Cores()),
			fmt.Sprintf("%db hdr/%db ids", layout.HeaderBits(), layout.SrcBits),
		}, r.cells()...))
	}
	return t, nil
}

// attackedRow is one row of an extension preset: an attacked group and its
// clean baseline, the group with the same key but attack none.
type attackedRow struct {
	attacked, clean *Group
}

// attackedRows gives one row per attacked group, in grid order, keyed by
// label; a group labelled "" is left out. A label holds one group: a second
// condition the label does not display is an error naming both groups, and
// so is a row without its clean baseline or records that give no row.
func attackedRows(records []Record, preset string, label func(*Group) string) ([]attackedRow, error) {
	groups, err := Aggregate(records)
	if err != nil {
		return nil, err
	}
	clean := map[GroupKey]*Group{}
	for i := range groups {
		if groups[i].Key.Attack == "none" {
			clean[groups[i].Key] = &groups[i]
		}
	}
	index := map[string]*Group{}
	var rows []attackedRow
	for i := range groups {
		g := &groups[i]
		name := ""
		if g.Key.Attack != "none" {
			name = label(g)
		}
		if name == "" {
			continue
		}
		if prev := index[name]; prev != nil {
			return nil, fmt.Errorf("%s preset, row %s: groups %q and %q fall into one row", preset, name, prev.Key, g.Key)
		}
		index[name] = g
		k := g.Key
		k.Attack = "none"
		if clean[k] == nil {
			return nil, fmt.Errorf("%s preset, row %s: needs the clean arm %q", preset, name, k)
		}
		rows = append(rows, attackedRow{g, clean[k]})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s preset: no row in the records (a row needs an attacked group it tabulates)", preset)
	}
	return rows, nil
}

// rank1Cell renders whether a record's rank-1 suspect is an infected link.
func rank1Cell(r Record) string {
	if slices.Contains(r.InfectedLinks, r.Rank1Link) {
		return fmt.Sprintf("hit (link %d)", r.Rank1Link)
	}
	return "miss"
}

// LocateTable renders the localization table from campaign records
// (specs/locate.json): the Figure 11 attack with the locate layer on, one
// row per topology in grid order, naming each rank-1 link on the row's
// platform.
func LocateTable(records []Record) (tab.Table, error) {
	t := tab.Table{
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
	rows, err := attackedRows(records, "locate", func(g *Group) string { return g.Key.Topology })
	if err != nil {
		return t, err
	}
	yes := map[bool]string{true: "yes", false: "no"}
	for _, row := range rows {
		k, r := row.attacked.Key, row.attacked.First
		cfg, err := Scenario{Topology: k.Topology, Width: k.Width, Height: k.Height}.Config()
		if err != nil {
			return t, fmt.Errorf("locate row %s: %w", k.Topology, err)
		}
		n, err := noc.New(cfg.Noc)
		if err != nil {
			return t, fmt.Errorf("locate row %s: %w", k.Topology, err)
		}
		links := n.LinkSlice()
		if r.Rank1Link >= len(links) || r.Rank1TelemetryLink >= len(links) {
			return t, fmt.Errorf("locate row %s: rank-1 links %d and %d, want ids below %d", k.Topology, r.Rank1Link, r.Rank1TelemetryLink, len(links))
		}
		name := func(id int) string {
			if id < 0 {
				return "-"
			}
			return fmt.Sprintf("%d (%s)", id, links[id])
		}
		ttl := "never"
		if r.TLocalize >= 0 {
			ttl = fmt.Sprintf("%d cyc", r.TLocalize)
		}
		t.Rows = append(t.Rows, []string{
			k.Topology,
			fmt.Sprintf("%v", r.InfectedLinks),
			name(r.Rank1Link),
			yes[slices.Contains(r.InfectedLinks, r.Rank1Link)],
			fmt.Sprintf("%.2f", r.Rank1Confidence),
			ttl,
			name(r.Rank1TelemetryLink),
			yes[slices.Contains(r.InfectedLinks, r.Rank1TelemetryLink)],
		})
	}
	return t, nil
}

// AdversaryTable renders the quiet-trojan table from campaign records
// (specs/adversary.json): the drop and misroute families under secure-ack
// monitoring and localization, one row per topology and family in grid
// order, each against its topology's clean arm.
func AdversaryTable(records []Record) (tab.Table, error) {
	t := tab.Table{
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
	rows, err := attackedRows(records, "adversary", func(g *Group) string {
		return g.Key.Topology + " " + g.First.Mode
	})
	if err != nil {
		return t, err
	}
	for _, row := range rows {
		a, c := row.attacked, row.clean
		r := a.First
		t.Rows = append(t.Rows, []string{
			a.Key.Topology,
			r.Mode,
			fmt.Sprintf("%v", r.InfectedLinks),
			tab.F3(c.Throughput.Mean),
			tab.F3(a.Throughput.Mean),
			tab.Pct(a.Throughput.Mean / c.Throughput.Mean),
			fmt.Sprintf("%d/%d", r.VictimDelivered, c.First.VictimDelivered),
			fmt.Sprintf("%d", r.HTInjections),
			fmt.Sprintf("%d", r.DroppedInFlight),
			fmt.Sprintf("%d/%d", r.InfectedConvicted, len(r.InfectedLinks)),
			rank1Cell(r),
		})
	}
	return t, nil
}

// AdaptiveTable renders the adaptive-adversary table from campaign records
// (specs/adaptive.json): the throttle dropper against the stock streak-only
// detector it is tuned to evade, then the throttle and collude families
// against the full monitor with conviction-driven recovery, one row each
// per topology in grid order, against the clean arm under the same
// detector. The grid's colluders under the stock detector are left out.
func AdaptiveTable(records []Record) (tab.Table, error) {
	t := tab.Table{
		Title: "Extension: adaptive trojans vs deficit/fused detection and retransmit-around recovery (Figure 11 protocol per substrate)",
		Columns: []string{
			"topology", "mode", "detector", "infected", "attacked tput", "retained",
			"verdicts", "channel", "recovered@", "post-recovery", "rank-1",
		},
		Notes: []string{
			"throttle: the drop payload gated by a duty cycle tuned under the streak threshold — the stock consecutive-window detector never convicts (\"evaded\")",
			"collude: three trojan links rotate the strike duty so no single link sustains a streak or a per-link deficit; the fused cross-link view attributes the summed loss",
			"detector=stock disables the deficit/fused channels (streak only); detector=deficit runs the full monitor",
			"post-recovery: delivered throughput from the first conviction-driven reroute to the end of the run, as a share of the clean baseline",
			"rank-1: whether the locate engine's top suspect is an infected link at the end of the run",
		},
	}
	rows, err := attackedRows(records, "adaptive", func(g *Group) string {
		if g.Key.Detector == "stock" && g.First.Mode != "throttle" {
			return ""
		}
		return g.Key.Topology + " " + g.First.Mode + " " + g.Key.Detector
	})
	if err != nil {
		return t, err
	}
	for _, row := range rows {
		a, c := row.attacked, row.clean
		r := a.First
		verdicts, channel := "evaded", "-"
		if r.InfectedConvicted > 0 {
			verdicts = fmt.Sprintf("%d/%d", r.InfectedConvicted, len(r.InfectedLinks))
			channel = r.ConvictingChannel
		}
		recovered, postRec := "-", "-"
		if r.RecoveredAt > 0 {
			recovered = fmt.Sprintf("%d", r.RecoveredAt)
			postRec = tab.Pct(r.PostRecoveryThroughput / c.Throughput.Mean)
		}
		t.Rows = append(t.Rows, []string{
			a.Key.Topology,
			r.Mode,
			a.Key.Detector,
			fmt.Sprintf("%v", r.InfectedLinks),
			tab.F3(a.Throughput.Mean),
			tab.Pct(a.Throughput.Mean / c.Throughput.Mean),
			verdicts,
			channel,
			recovered,
			postRec,
			rank1Cell(r),
		})
	}
	return t, nil
}
