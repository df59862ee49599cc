package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"tasp/internal/campaign"
	"tasp/internal/core"
	"tasp/internal/exp"
)

// maxProblems caps how many failure descriptions a report keeps.
const maxProblems = 5

// tally counts the operations a report attempted and failed, keeping the
// first few failure descriptions.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Problems) < maxProblems {
		t.Problems = append(t.Problems, fmt.Sprintf(format, args...))
	}
}

// digest records the output's sha256 and the failed share.
func (r *rep) digest(output []byte) {
	sum := sha256.Sum256(output)
	r.SHA256 = hex.EncodeToString(sum[:])
	if r.Simulated == nil {
		r.Simulated = map[string]float64{}
	}
	r.Simulated["failed_frac"] = float64(r.Failed) / float64(r.Attempted)
}

// section is one experiment's rendered block of `-exp all` output.
type section struct {
	id   string
	text string
	err  error
}

// renderSections renders each experiment exactly as `-exp all` prints it.
func renderSections(results []exp.Result) []section {
	out := make([]section, len(results))
	for i, r := range results {
		text, err := exp.RenderAll([]exp.Result{r})
		out[i] = section{id: r.ID, text: text, err: err}
	}
	return out
}

// splitGolden cuts a rendered `-exp all` output into its sections by the
// "==== id ====" banners.
func splitGolden(text string) map[string]string {
	out := map[string]string{}
	for len(text) > 0 {
		end := strings.Index(text[1:], "\n==== ")
		block := text
		if end >= 0 {
			block = text[:end+2]
		}
		banner, _, _ := strings.Cut(block, "\n")
		id := strings.TrimSuffix(strings.TrimPrefix(banner, "==== "), " ====")
		out[id] = block
		text = text[len(block):]
	}
	return out
}

// checkPaper counts one failed operation per experiment that errored or,
// when a golden output is given (seed 1), whose section differs from it.
func checkPaper(sections []section, golden []byte) rep {
	o := rep{tally: tally{Attempted: len(sections)}}
	var want map[string]string
	if golden != nil {
		want = splitGolden(string(golden))
	}
	var all strings.Builder
	for _, s := range sections {
		all.WriteString(s.text)
		switch {
		case s.err != nil:
			o.fail("%v", s.err)
		case want != nil && want[s.id] != s.text:
			o.fail("%s: section differs from %s", s.id, goldenPath)
		}
	}
	o.digest([]byte(all.String()))
	return o
}

// identity returns the record a campaign worker writes for a scenario's
// identity fields (the outcome fields stay zero).
func identity(index int, sc campaign.Scenario) (campaign.Record, core.ExperimentConfig, error) {
	cfg, err := sc.Config()
	if err != nil {
		return campaign.Record{}, cfg, err
	}
	topo := cfg.Noc.Topo
	if topo == "" {
		topo = "mesh"
	}
	return campaign.Record{
		Index:      index,
		Topology:   topo,
		Width:      cfg.Noc.Width,
		Height:     cfg.Noc.Height,
		Benchmark:  cfg.Benchmark,
		Attack:     sc.Attack.Name(),
		Mitigation: cfg.Mitigation.String(),
		Seed:       sc.Seed,
	}, cfg, nil
}

// checkCampaign checks a grid's JSONL output line by line; each point fails
// at most once. A line must parse with campaign.ReadRecords, carry its grid
// index and the identity fields Spec.Expand gives that point, and a clean
// (attack none) point must report no trojan activity and no trojan-induced
// loss. A missing line, such as a point a failed campaign.Run never
// committed, fails too.
func checkCampaign(spec campaign.Spec, output []byte, runErr error) rep {
	scenarios := spec.Expand()
	o := rep{tally: tally{Attempted: len(scenarios)}}
	if runErr != nil {
		o.Problems = append(o.Problems, "campaign.Run: "+runErr.Error())
	}
	lines := bytes.Split(output, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	var det detection
	for i, sc := range scenarios {
		if i >= len(lines) {
			o.fail("point %d: no record", i)
			continue
		}
		want, cfg, err := identity(i, sc)
		if err != nil {
			o.fail("point %d: %v", i, err)
			continue
		}
		recs, err := campaign.ReadRecords(bytes.NewReader(lines[i]))
		if err != nil || len(recs) != 1 {
			o.fail("point %d: unreadable record %q", i, lines[i])
			continue
		}
		got := recs[0]
		if got.Index != want.Index || got.Topology != want.Topology || got.Width != want.Width ||
			got.Height != want.Height || got.Benchmark != want.Benchmark || got.Attack != want.Attack ||
			got.Mitigation != want.Mitigation || got.Seed != want.Seed {
			o.fail("point %d: identity fields differ from the grid", i)
			continue
		}
		if got.Attack == "none" && (got.HTMatches != 0 || got.HTInjections != 0 ||
			got.DroppedInFlight != 0 || got.DroppedOrphan != 0) {
			o.fail("point %d: clean point reports trojan activity", i)
			continue
		}
		det.add(got, cfg)
	}
	for i := len(scenarios); i < len(lines); i++ {
		o.fail("line %d: beyond the grid's %d points", i+1, len(scenarios))
	}
	o.Simulated = det.metrics()
	o.digest(output)
	return o
}

// detection accumulates the detection outcomes of a grid's monitored
// points, with the definitions of Weerasena et al. (arXiv:2505.14898) and
// DL2Fence (arXiv:2403.13563): the detection rate over attacked points,
// the false-conviction rate over clean points, and the detection latency
// in simulated cycles after the attack enables.
type detection struct {
	attacked, detected, clean, falseConv int
	cycles                               []float64
}

func (d *detection) add(r campaign.Record, cfg core.ExperimentConfig) {
	monitored := cfg.Mitigation == core.S2SLOb || cfg.SecureAck
	if r.Attack == "none" {
		d.clean++
		if r.FlaggedLinks > 0 || r.AckFlagged > 0 {
			d.falseConv++
		}
		return
	}
	if !monitored {
		return
	}
	d.attacked++
	if r.TrojanLinks >= 1 || r.AckFlagged >= 1 {
		d.detected++
	}
	if r.FirstTrojanAt > 0 {
		d.cycles = append(d.cycles, float64(r.FirstTrojanAt)-float64(cfg.Warmup))
	}
}

// metrics reports nothing for a grid that monitors no attacked point. The
// latency needs the threat detector's conviction cycle (first_trojan_at);
// records carry no secure-ack conviction cycle. Its p90 needs at least ten
// samples beyond it, so it is left out below 100.
func (d *detection) metrics() map[string]float64 {
	m := map[string]float64{}
	if d.attacked == 0 {
		return m
	}
	m["detect_frac"] = float64(d.detected) / float64(d.attacked)
	if d.clean > 0 {
		m["false_convict_frac"] = float64(d.falseConv) / float64(d.clean)
	}
	if len(d.cycles) == 0 {
		return m
	}
	sort.Float64s(d.cycles)
	m["detect_n"] = float64(len(d.cycles))
	m["detect_cycles_p50"] = percentile(d.cycles, 50)
	if len(d.cycles) >= 100 {
		m["detect_cycles_p90"] = percentile(d.cycles, 90)
	}
	return m
}
