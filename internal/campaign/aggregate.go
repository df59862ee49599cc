package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"tasp/internal/tab"
)

// ReadRecords decodes a JSONL stream produced by Run.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// GroupKey identifies one experimental condition: every grid axis except
// the seed, which is the replication axis.
type GroupKey struct {
	Topology   string
	Width      int
	Height     int
	Benchmark  string
	Attack     string
	Mitigation string
}

func (k GroupKey) String() string {
	return fmt.Sprintf("%s %dx%d %s attack=%s mit=%s",
		k.Topology, k.Width, k.Height, k.Benchmark, k.Attack, k.Mitigation)
}

// Stat is a mean with a 95% confidence interval over seeds (normal
// approximation; sweeps replicate tens of seeds, where z and t differ by a
// few percent at most).
type Stat struct {
	N        int
	Mean     float64
	HalfCI95 float64
}

func newStat(vals []float64) Stat {
	s := Stat{N: len(vals)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	var ss float64
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(s.N-1))
	s.HalfCI95 = 1.96 * sd / math.Sqrt(float64(s.N))
	return s
}

// Group is one condition's aggregate over its seeds.
type Group struct {
	Key             GroupKey
	Throughput      Stat
	AvgLatency      Stat
	VictimDelivered Stat
	// First is the group's first record in grid order, for the per-run
	// fields that are seed-invariant by construction (infected placement,
	// router count) or reported as a representative sample (blocked
	// routers).
	First Record
}

// Aggregate groups records by condition, in first-appearance (grid) order.
func Aggregate(records []Record) []Group {
	index := map[GroupKey]int{}
	var groups []Group
	members := map[GroupKey][]Record{}
	for _, rec := range records {
		k := GroupKey{rec.Topology, rec.Width, rec.Height, rec.Benchmark, rec.Attack, rec.Mitigation}
		if _, ok := index[k]; !ok {
			index[k] = len(groups)
			groups = append(groups, Group{Key: k, First: rec})
		}
		members[k] = append(members[k], rec)
	}
	for i := range groups {
		ms := members[groups[i].Key]
		col := func(f func(Record) float64) Stat {
			vals := make([]float64, len(ms))
			for j, m := range ms {
				vals[j] = f(m)
			}
			return newStat(vals)
		}
		groups[i].Throughput = col(func(r Record) float64 { return r.Throughput })
		groups[i].AvgLatency = col(func(r Record) float64 { return r.AvgLatency })
		groups[i].VictimDelivered = col(func(r Record) float64 { return float64(r.VictimDelivered) })
	}
	return groups
}

// meanCI renders a stat as "mean" or "mean ±ci".
func meanCI(s Stat) string {
	if s.N < 2 || s.HalfCI95 == 0 {
		return tab.F3(s.Mean)
	}
	return fmt.Sprintf("%s ±%s", tab.F3(s.Mean), tab.F3(s.HalfCI95))
}

// Table renders the generic aggregate: one row per condition with seed
// count, throughput and latency (mean ±95% CI).
func Table(groups []Group) tab.Table {
	t := tab.Table{
		Title:   "Campaign aggregate (mean ±95% CI over seeds)",
		Columns: []string{"topology", "dims", "benchmark", "attack", "mitigation", "seeds", "tput", "avg lat", "victim pkts"},
	}
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Key.Topology,
			fmt.Sprintf("%dx%d", g.Key.Width, g.Key.Height),
			g.Key.Benchmark,
			g.Key.Attack,
			g.Key.Mitigation,
			fmt.Sprintf("%d", g.Throughput.N),
			meanCI(g.Throughput),
			meanCI(g.AvgLatency),
			meanCI(g.VictimDelivered),
		})
	}
	return t
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
// first silently, so it is an error naming both groups.
func figure11Rows(records []Record, preset string, label func(GroupKey) string) ([]figure11Row, error) {
	groups := Aggregate(records)
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
