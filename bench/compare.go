package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"tasp/internal/tab"
)

// minPairs is the fewest parent/change pairs a gain may be claimed on.
const minPairs = 10

// compareMain implements `bench compare -parent R... -change R...`: it
// reads one results.json per run of each side, pairs them in order (run
// the sides alternately), and applies the rule of the choosing-metrics
// guide, section 8, to every end-to-end metric of every workload. It exits
// 1 when a metric is worse or an output changed, 2 on a usage error.
func compareMain(args []string, stdout, stderr io.Writer) int {
	parentPaths, changePaths, err := compareArgs(args)
	if err == nil {
		var parent, change []results
		if parent, err = loadResults(parentPaths); err == nil {
			if change, err = loadResults(changePaths); err == nil {
				var rep comparison
				if rep, err = compare(parent, change); err == nil {
					rep.print(stdout)
					if rep.regressed() {
						return 1
					}
					return 0
				}
			}
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	fmt.Fprintln(stderr, "usage: bench compare -parent RESULTS... -change RESULTS...")
	return 2
}

func compareArgs(args []string) (parent, change []string, err error) {
	var cur *[]string
	for _, a := range args {
		switch a {
		case "-parent", "--parent":
			cur = &parent
		case "-change", "--change":
			cur = &change
		default:
			if strings.HasPrefix(a, "-") {
				return nil, nil, fmt.Errorf("unknown flag %q", a)
			}
			if cur == nil {
				return nil, nil, fmt.Errorf("%q comes before -parent or -change", a)
			}
			*cur = append(*cur, a)
		}
	}
	if len(parent) == 0 || len(change) == 0 {
		return nil, nil, fmt.Errorf("need results for both -parent and -change")
	}
	if len(parent) != len(change) {
		return nil, nil, fmt.Errorf("%d parent runs but %d change runs; runs pair up in order", len(parent), len(change))
	}
	return parent, change, nil
}

func loadResults(paths []string) ([]results, error) {
	out := make([]results, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &out[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[i].Trace {
			return nil, fmt.Errorf("%s: a traced run has no end-to-end metrics to compare", p)
		}
	}
	return out, nil
}

// verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// pairRow is the comparison of one end-to-end metric on one workload.
type pairRow struct {
	workload string
	metric   metricDef
	parent   summary // over the parent runs' medians
	change   summary
	winShare float64 // pairs the change won; ties count for neither side
	worseBy  float64 // the change's median regression as a share of the parent's
	verdict  string
}

type comparison struct {
	pairs int
	rows  []pairRow
	flags []string // output or simulated-metric changes, extra failures
}

func (c comparison) regressed() bool {
	for _, r := range c.rows {
		if r.verdict == worse {
			return true
		}
	}
	return len(c.flags) > 0
}

// compare pairs parent[i] with change[i].
func compare(parent, change []results) (comparison, error) {
	c := comparison{pairs: len(parent)}
	for _, pw := range parent[0].Workloads {
		for _, m := range endToEnd {
			p, err := medians(parent, pw.Name, m.Name)
			if err != nil {
				return c, err
			}
			q, err := medians(change, pw.Name, m.Name)
			if err != nil {
				return c, err
			}
			c.rows = append(c.rows, judge(pw.Name, m, p, q))
		}
	}
	for i := range parent {
		c.flags = append(c.flags, outputChanges(i, parent[i], change[i])...)
	}
	return c, nil
}

// medians collects one metric's per-run medians on one workload.
func medians(runs []results, workload, metric string) ([]float64, error) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		wr, ok := findResult(r, workload)
		if !ok {
			return nil, fmt.Errorf("run %d has no %s workload", i, workload)
		}
		s, ok := wr.Metrics[metric]
		if !ok || s.N == 0 {
			return nil, fmt.Errorf("run %d has no %s on %s", i, metric, workload)
		}
		out[i] = s.Median
	}
	return out, nil
}

func findResult(r results, name string) (workloadResult, bool) {
	for _, wr := range r.Workloads {
		if wr.Name == name {
			return wr, true
		}
	}
	return workloadResult{}, false
}

// judge applies the section-8 rule. A gain needs a win share of at least
// 0.9 and a median difference wider than the parent's interquartile
// spread, on at least minPairs pairs; on fewer it stays unresolved. A
// parent spread wider than the bound leaves the metric unresolved unless
// every change run beats every parent run. Otherwise the metric is worse
// when the change's median regresses by more than the bound, and unchanged
// when it does not.
func judge(workload string, m metricDef, p, q []float64) pairRow {
	row := pairRow{workload: workload, metric: m, parent: summarize(p), change: summarize(q)}
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range p {
		if better(q[i], p[i]) {
			wins++
		}
	}
	row.winShare = float64(wins) / float64(len(p))
	if row.parent.Median != 0 {
		row.worseBy = (row.change.Median - row.parent.Median) / math.Abs(row.parent.Median)
		if m.Better == "higher" {
			row.worseBy = -row.worseBy
		}
	}
	allBetter := true
	for _, a := range q {
		for _, b := range p {
			if !better(a, b) {
				allBetter = false
			}
		}
	}
	diff := math.Abs(row.change.Median - row.parent.Median)
	switch {
	case row.winShare >= 0.9 && row.worseBy < 0 && diff > row.parent.Q3-row.parent.Q1:
		row.verdict = improved
		if len(p) < minPairs {
			row.verdict = unresolved
		}
	case row.parent.spread() > m.Bound && !allBetter:
		row.verdict = unresolved
	case row.worseBy > m.Bound:
		row.verdict = worse
	default:
		row.verdict = unchanged
	}
	return row
}

// outputChanges flags, for one pair run at the same seed, every workload
// whose output digest or simulated metrics differ, and any rise in failed
// operations.
func outputChanges(i int, parent, change results) []string {
	var out []string
	for _, pw := range parent.Workloads {
		cw, ok := findResult(change, pw.Name)
		if !ok {
			out = append(out, fmt.Sprintf("pair %d: %s missing from the change run", i, pw.Name))
			continue
		}
		if cw.Failed > pw.Failed {
			out = append(out, fmt.Sprintf("pair %d: %s failed %d operations, the parent %d", i, pw.Name, cw.Failed, pw.Failed))
		}
		if parent.Seed != change.Seed {
			continue
		}
		if cw.OutputSHA256 != pw.OutputSHA256 {
			out = append(out, fmt.Sprintf("pair %d: %s output_sha256 changed", i, pw.Name))
		}
		for _, m := range simulated {
			a, aok := pw.Simulated[m.Name]
			b, bok := cw.Simulated[m.Name]
			if aok != bok || a != b {
				out = append(out, fmt.Sprintf("pair %d: %s %s changed from %s to %s", i, pw.Name, m.Name, num(a), num(b)))
			}
		}
	}
	return out
}

func (c comparison) print(w io.Writer) {
	t := tab.Table{
		Title: fmt.Sprintf("parent vs change over %d pairs (medians and quartiles of the per-run medians)", c.pairs),
		Columns: []string{"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
			"win share", "parent IQR", "worse by", "bound", "verdict"},
	}
	side := func(s summary) string {
		return fmt.Sprintf("%s [%s, %s]", num(s.Median), num(s.Q1), num(s.Q3))
	}
	for _, r := range c.rows {
		t.Rows = append(t.Rows, []string{r.workload, r.metric.Name, r.metric.Unit, side(r.parent), side(r.change),
			strconv.FormatFloat(r.winShare, 'f', 2, 64), num(r.parent.Q3 - r.parent.Q1),
			fmt.Sprintf("%+.1f%%", r.worseBy*100), fmt.Sprintf("%.0f%%", r.metric.Bound*100), r.verdict})
	}
	if c.pairs < minPairs {
		t.Notes = append(t.Notes, fmt.Sprintf("only %d pairs: no gain can be claimed below %d", c.pairs, minPairs))
	}
	for _, f := range c.flags {
		t.Notes = append(t.Notes, "CHANGED: "+f)
	}
	fmt.Fprint(w, t.Render())
}
