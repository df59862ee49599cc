package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"tasp/internal/tab"
)

// ReadRecords decodes a JSONL stream as Run writes it. Each line must be
// byte for byte what AppendJSONL makes of its record (the last line's
// newline may be missing); any other line, such as {} or a record with an
// unknown field, fails with its number.
func ReadRecords(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var out []Record
	var enc []byte
	for line := 1; len(data) > 0; line++ {
		var text []byte
		text, data, _ = bytes.Cut(data, []byte{'\n'})
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if enc = rec.AppendJSONL(enc[:0]); !bytes.Equal(text, enc[:len(enc)-1]) {
			col := 1 // enc ends in the newline text lacks, so the scan stays in enc
			for col <= len(text) && text[col-1] == enc[col-1] {
				col++
			}
			return nil, fmt.Errorf("line %d: not a record as campaign run writes it (it differs from its encoding at column %d)", line, col)
		}
		out = append(out, rec)
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
	Detector   string
}

func (k GroupKey) String() string {
	return fmt.Sprintf("%s %dx%d %s attack=%s mit=%s det=%s",
		k.Topology, k.Width, k.Height, k.Benchmark, k.Attack, k.Mitigation, k.Detector)
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
// A group holds each seed once: a repeated seed means two grid entries
// share one group key, and averaging them would mix two conditions.
func Aggregate(records []Record) ([]Group, error) {
	type point struct {
		key  GroupKey
		seed uint64
	}
	index := map[GroupKey]int{}
	seen := map[point]int{}
	var groups []Group
	members := map[GroupKey][]Record{}
	for _, rec := range records {
		k := GroupKey{rec.Topology, rec.Width, rec.Height, rec.Benchmark, rec.Attack, rec.Mitigation, rec.Detector}
		if prev, ok := seen[point{k, rec.Seed}]; ok {
			return nil, fmt.Errorf("group %q holds seed %d twice (records %d and %d)", k, rec.Seed, prev, rec.Index)
		}
		seen[point{k, rec.Seed}] = rec.Index
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
	return groups, nil
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
		Columns: []string{"topology", "dims", "benchmark", "attack", "mitigation", "detector", "seeds", "tput", "avg lat", "victim pkts"},
	}
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Key.Topology,
			fmt.Sprintf("%dx%d", g.Key.Width, g.Key.Height),
			g.Key.Benchmark,
			g.Key.Attack,
			g.Key.Mitigation,
			g.Key.Detector,
			fmt.Sprintf("%d", g.Throughput.N),
			meanCI(g.Throughput),
			meanCI(g.AvgLatency),
			meanCI(g.VictimDelivered),
		})
	}
	return t
}
