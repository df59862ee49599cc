package campaign

import (
	"testing"

	"tasp/internal/core"
)

// pointLoop is the worker's per-group body without the channel plumbing:
// lower the group's scenarios, run them on the reused arena through
// RunGroup — the first member checkpoints the shared warm-up and the
// others resume from it — and fill and encode each record into a recycled
// buffer. One step runs one group.
type pointLoop struct {
	scenarios []Scenario
	groups    [][]int
	runner    *core.Runner
	res       *core.Results
	rec       Record
	buf       []byte
	cfgs      []core.ExperimentConfig
	members   []int
	i         int
	resumed   int // members that resumed a checkpoint, for the coverage check
}

func newPointLoop(tb testing.TB) *pointLoop {
	p := &pointLoop{scenarios: allocSpec().Expand(), runner: core.NewRunner(), res: &core.Results{}}
	p.groups = core.Groups(len(p.scenarios), 1, func(i int) (core.ExperimentConfig, error) { return p.scenarios[i].Config() })
	if len(p.groups) == len(p.scenarios) {
		tb.Fatal("allocSpec forms no fork group; the loop would not cover a resumed member")
	}
	return p
}

func (p *pointLoop) into(int) *core.Results { return p.res }

func (p *pointLoop) emit(k int, res *core.Results) error {
	i := p.members[k]
	p.rec.identify(i, &p.scenarios[i], &p.cfgs[k])
	p.rec.Fill(res)
	p.buf = p.rec.AppendJSONL(p.buf[:0])
	if k > 0 {
		p.resumed++
	}
	return nil
}

func (p *pointLoop) step(tb testing.TB) {
	p.members = p.groups[p.i%len(p.groups)]
	p.i++
	p.cfgs = p.cfgs[:0]
	for _, i := range p.members {
		cfg, err := p.scenarios[i].Config()
		if err != nil {
			tb.Fatal(err)
		}
		p.cfgs = append(p.cfgs, cfg)
	}
	if err := p.runner.RunGroup(p.cfgs, p.into, p.emit); err != nil {
		tb.Fatal(err)
	}
}

// allocSpec exercises the paper's headline arms (clean, attacked,
// defended) on one platform with rotating seeds — the shape of a real
// sweep's inner loop. Clean and attacked points of one seed and mitigation
// share their warm-up, so every group is a checkpointing member and a
// resuming one.
func allocSpec() Spec {
	return Spec{
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"none", "s2s-lob"},
		SeedCount:   8,
		Warmup:      200,
		Measure:     200,
	}
}

// TestCampaignPointSteadyStateAllocs pins the campaign engine's per-point
// allocation contract end to end: simulate + fill + encode allocates
// nothing once the worker's arena, checkpoint and buffers have warmed up,
// for the member that checkpoints its warm-up and the one that resumes it.
func TestCampaignPointSteadyStateAllocs(t *testing.T) {
	p := newPointLoop(t)
	// Warm past the recyclers' high-water marks (see the core runner's
	// steady-state test for why early points still grow freelists).
	for i := 0; i < 2*len(p.groups); i++ {
		p.step(t)
	}
	resumed := p.resumed
	if avg := testing.AllocsPerRun(10, func() { p.step(t) }); avg > 0.1 {
		t.Errorf("warmed campaign group allocates %.2f times per group; budget is 0", avg)
	}
	if p.resumed == resumed {
		t.Error("no measured group had a member resume the warm-up checkpoint")
	}
}

// BenchmarkCampaignPoint measures the warm per-group cost of a campaign
// worker (one 400-cycle point plus one resumed from its warm-up, and both
// records' encodes). Wired into the CI allocation gate: the b.N loop must
// report 0 allocs/op.
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
