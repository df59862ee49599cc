package campaign

import (
	"context"
	"sync/atomic"
	"testing"

	"tasp/internal/core"
)

// pointLoop drives a sweep worker one group at a time: the worker's
// Runner lowers the group's scenarios and runs them through RunGroup — the
// first member checkpoints the shared warm-up, a member repeating its run
// copies its results, the attacked rerouting member resumes its
// unmitigated twin at its reroute cycle, and the others resume the
// warm-up — and the worker fills and encodes each record into a recycled
// buffer, which the loop hands back as the writer would.
type pointLoop struct {
	w       *worker
	runner  *core.Runner
	results chan encoded
	groups  [][]int
	next    atomic.Int64
	i       int // steps taken
	g       int // the group the current step runs
	resumed int // members that resumed the warm-up, for the coverage check
	twins   int // members that resumed their twin
	copied  int // members that copied an earlier member's run
}

func newPointLoop(tb testing.TB) *pointLoop {
	scenarios := allocSpec().Expand()
	results := make(chan encoded, len(scenarios))
	p := &pointLoop{
		w:       &worker{ctx: context.Background(), scenarios: scenarios, pool: &bufPool{}, results: results},
		runner:  core.NewRunner(),
		results: results,
	}
	p.groups = core.Groups(len(scenarios), 1, p.w.config)
	if len(p.groups) == len(scenarios) {
		tb.Fatal("allocSpec forms no fork group; the loop would not cover a resumed member")
	}
	return p
}

// emit counts the member's role and passes it on to the worker.
func (p *pointLoop) emit(i int, cfg *core.ExperimentConfig, res *core.Results) error {
	first := i == p.groups[p.g][0]
	switch sc := &p.w.scenarios[i]; {
	case sc.Attack.Kind == "none" && !first:
		p.copied++ // the clean point under a mitigation repeats it under none
	case sc.Mitigation == "rerouting":
		p.twins++
	case !first:
		p.resumed++
	}
	return p.w.emit(i, cfg, res)
}

// step runs the next group.
func (p *pointLoop) step(tb testing.TB) {
	p.g = p.i % len(p.groups)
	p.i++
	p.next.Store(0)
	if i, err := p.runner.RunGroups(p.w.ctx, p.groups[p.g:p.g+1], &p.next, p.w.config, p.w.into, p.emit); err != nil {
		tb.Fatalf("point %d: %v", i, err)
	}
	for range p.groups[p.g] {
		p.w.pool.put((<-p.results).buf)
	}
}

// allocSpec exercises the paper's headline arms (clean, attacked,
// defended, rerouted) on one platform with rotating seeds — the shape of a
// real sweep's inner loop. The six points of one seed share their warm-up,
// the clean point is one run under every mitigation, and the attacked
// point under rerouting is the one under none until its reroute cycle, so
// every group is a checkpointing member, two copied ones, two resuming the
// warm-up and one resuming its twin.
func allocSpec() Spec {
	return Spec{
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"none", "s2s-lob", "rerouting"},
		SeedCount:   8,
		Warmup:      200,
		Measure:     200,
	}
}

// TestCampaignPointSteadyStateAllocs pins the campaign engine's per-point
// allocation contract end to end: simulate + fill + encode allocates
// nothing once the worker's arena, checkpoint and buffers have warmed up,
// for the member that checkpoints its warm-up, the ones that copy its run,
// the ones that resume it and the one that resumes its twin.
func TestCampaignPointSteadyStateAllocs(t *testing.T) {
	p := newPointLoop(t)
	// Warm past the recyclers' high-water marks (see the core runner's
	// steady-state test for why early points still grow freelists).
	for i := 0; i < 2*len(p.groups); i++ {
		p.step(t)
	}
	resumed, twins, copied := p.resumed, p.twins, p.copied
	if avg := testing.AllocsPerRun(10, func() { p.step(t) }); avg > 0.1 {
		t.Errorf("warmed campaign group allocates %.2f times per group; budget is 0", avg)
	}
	if p.resumed == resumed || p.twins == twins || p.copied == copied {
		t.Error("no measured group had a member resume the warm-up, one resume its twin and one copy a run")
	}
}

// BenchmarkCampaignPoint measures the warm per-group cost of a campaign
// worker (one 400-cycle point, two copies of it, two points resumed from
// its warm-up, one resumed from its twin, and the six records' encodes).
// Wired into the CI allocation gate: the b.N loop must report 0 allocs/op.
func BenchmarkCampaignPoint(b *testing.B) {
	p := newPointLoop(b)
	for i := 0; i < 2*len(p.groups); i++ {
		p.step(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step(b)
	}
}

// TestFillAndEncodeAllocateNothing pins Fill and AppendJSONL at 0 allocs
// with every outcome field populated. allocSpec's points leave the
// localization, conviction and recovery fields at their defaults, so this
// fills a record from a pre-run drop point with locate, secure-ack and
// recovery on.
func TestFillAndEncodeAllocateNothing(t *testing.T) {
	sc := Scenario{
		Benchmark: "blackscholes",
		Seed:      1,
		Warmup:    400,
		Measure:   600,
		Attack:    AttackSpec{Kind: "dest", Mode: "drop"},
		Locate:    true,
		SecureAck: true,
		Recover:   true,
	}
	cfg, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	rec.identify(0, &sc, &cfg)
	rec.Fill(res)
	if rec.Rank1Link < 0 || rec.Rank1TelemetryLink < 0 || rec.Rank1Confidence <= 0 || rec.TLocalize < 0 ||
		rec.InfectedConvicted == 0 || rec.ConvictingChannel == "none" || rec.RecoveredAt == 0 || rec.PostRecoveryThroughput <= 0 {
		t.Fatalf("an outcome field is unpopulated: %+v", rec)
	}
	buf := rec.AppendJSONL(nil)
	if avg := testing.AllocsPerRun(100, func() {
		rec.Fill(res)
		buf = rec.AppendJSONL(buf[:0])
	}); avg != 0 {
		t.Errorf("Fill + AppendJSONL allocate %.2f times per record; budget is 0", avg)
	}
}
