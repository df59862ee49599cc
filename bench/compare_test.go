package main

import (
	"reflect"
	"strings"
	"testing"
)

// syntheticRuns builds n single-workload results whose wall_s medians come
// from wall(i); every other end-to-end metric reads 1 in every run.
func syntheticRuns(n int, sha string, wall func(i int) float64) []results {
	out := make([]results, n)
	for i := range out {
		wr := workloadResult{Name: "sweep", Correct: true, OutputSHA256: sha,
			Simulated: map[string]float64{"failed_frac": 0}, Metrics: map[string]summary{}}
		for _, m := range endToEnd {
			wr.Metrics[m.Name] = summarize([]float64{1})
		}
		wr.Metrics["wall_s"] = summarize([]float64{wall(i)})
		out[i] = results{Seed: 1, Workloads: []workloadResult{wr}}
	}
	return out
}

// jitter alternates ±1% around v.
func jitter(v float64) func(int) float64 {
	return func(i int) float64 { return v * (1 + 0.01*float64(i%3-1)) }
}

func TestCompareVerdicts(t *testing.T) {
	parent := syntheticRuns(10, "a", jitter(10))
	for _, c := range []struct {
		name   string
		parent []results
		change []results
		want   string
	}{
		{"faster in every pair", parent, syntheticRuns(10, "a", jitter(8)), improved},
		{"same", parent, syntheticRuns(10, "a", jitter(10)), unchanged},
		{"slower within the bound", parent, syntheticRuns(10, "a", jitter(10.5)), unchanged},
		{"slower beyond the bound", parent, syntheticRuns(10, "a", jitter(13)), worse},
		{"parent spread wider than the bound", syntheticRuns(10, "a", func(i int) float64 { return float64(5 + i) }),
			syntheticRuns(10, "a", jitter(9)), unresolved},
		{"faster on too few pairs", parent[:3], syntheticRuns(3, "a", jitter(8)), unresolved},
	} {
		rep, err := compare(c.parent, c.change)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.rows {
			want := unchanged
			if r.metric.Name == "wall_s" {
				want = c.want
			}
			if r.verdict != want {
				t.Errorf("%s: %s is %s, want %s", c.name, r.metric.Name, r.verdict, want)
			}
		}
		if len(rep.flags) != 0 {
			t.Errorf("%s: unexpected flags %v", c.name, rep.flags)
		}
	}
}

func TestCompareFlagsOutputChanges(t *testing.T) {
	change := syntheticRuns(10, "b", jitter(10))
	change[4].Workloads[0].Failed = 1
	rep, err := compare(syntheticRuns(10, "a", jitter(10)), change)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.flags) != 11 || !rep.regressed() {
		t.Fatalf("flags %v: want ten digest changes and one failure rise", rep.flags)
	}
	if !strings.Contains(strings.Join(rep.flags, "\n"), "pair 4: sweep failed 1 operations") {
		t.Errorf("flags %v lack the failure rise", rep.flags)
	}
}

func TestCompareArgs(t *testing.T) {
	p, c, err := compareArgs([]string{"-parent", "a", "b", "--change", "c", "d"})
	if err != nil || !reflect.DeepEqual(p, []string{"a", "b"}) || !reflect.DeepEqual(c, []string{"c", "d"}) {
		t.Fatalf("got %v %v %v", p, c, err)
	}
	for _, bad := range [][]string{{"a", "-parent", "b", "-change", "c"}, {"-parent", "a", "-change"}, {"-parent", "a", "b", "-change", "c"}, {"-x"}} {
		if _, _, err := compareArgs(bad); err == nil {
			t.Errorf("%v: no error", bad)
		}
	}
}
