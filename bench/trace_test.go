package main

import (
	"math"
	"testing"
)

// TestSelfTimesSubtractChildrenAndClockReads builds a replay root holding
// one coarse child and an aggregated per-cycle site with a nested site,
// with a clock read costing 10 ns, and checks the self-time arithmetic.
func TestSelfTimesSubtractChildrenAndClockReads(t *testing.T) {
	tr := &tracer{clock: 10, spans: []span{
		{Name: "replay", Parent: -1, Calls: 1, TotalNs: 20_000},
		{Name: "locate.rank", Parent: 0, Calls: 1, TotalNs: 1_010},
		{Name: "noc.step", Parent: 0, Calls: 100, TotalNs: 9_000},
		{Name: "core.wire", Parent: 2, Calls: 200, TotalNs: 4_000},
	}}
	want := []float64{
		20_000 - 10 - (1_010 + 10) - (9_000 + 100*10), // root: its own read, both reads of every child call
		1_010 - 10,
		9_000 - 100*10 - (4_000 + 200*10),
		4_000 - 200*10,
	}
	self := tr.selfTimes()
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("%s self = %v, want %v", tr.spans[i].Name, self[i], want[i])
		}
	}
}

func TestCoverageCountsOnlySpansUnderTheRoot(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "replay", Parent: -1, Calls: 1, TotalNs: 1_000},
		{Name: "noc.step", Parent: 0, Calls: 1, TotalNs: 600},
		{Name: "core.wire", Parent: 1, Calls: 1, TotalNs: 300},
		{Name: "campaign.encode", Parent: -1, Calls: 1, TotalNs: 500},
	}}
	if got := tr.coverage("replay"); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6 (step 300 + wire 300 of 1000)", got)
	}
}
