package campaign

import (
	"testing"

	"tasp/internal/core"
)

// pointLoop is the worker's per-point body without the channel plumbing:
// lower the scenario, run it on the reused arena, fill and encode the
// record into a recycled buffer.
type pointLoop struct {
	scenarios []Scenario
	runner    *core.Runner
	res       *core.Results
	rec       Record
	buf       []byte
	i         int
}

func (p *pointLoop) step(tb testing.TB) {
	sc := p.scenarios[p.i%len(p.scenarios)]
	p.i++
	cfg, err := sc.Config()
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.runner.RunInto(cfg, p.res); err != nil {
		tb.Fatal(err)
	}
	p.rec.identify(p.i, &sc, &cfg)
	p.rec.Fill(p.res)
	p.buf = p.rec.AppendJSONL(p.buf[:0])
}

// allocSpec exercises the paper's headline arms (clean, attacked,
// defended) on one platform with rotating seeds — the shape of a real
// sweep's inner loop.
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
// nothing once the worker's arena and buffers have warmed up.
func TestCampaignPointSteadyStateAllocs(t *testing.T) {
	p := &pointLoop{
		scenarios: allocSpec().Expand(),
		runner:    core.NewRunner(),
		res:       &core.Results{},
	}
	// Warm past the recyclers' high-water marks (see the core runner's
	// steady-state test for why early points still grow freelists).
	for i := 0; i < 2*len(p.scenarios); i++ {
		p.step(t)
	}
	if avg := testing.AllocsPerRun(10, func() { p.step(t) }); avg > 0.1 {
		t.Errorf("warmed campaign point allocates %.2f times per point; budget is 0", avg)
	}
}

// BenchmarkCampaignPoint measures the warm per-point cost of a campaign
// worker (simulate 400 cycles + record encode). Wired into the CI
// allocation gate: the b.N loop must report 0 allocs/op.
func BenchmarkCampaignPoint(b *testing.B) {
	p := &pointLoop{
		scenarios: allocSpec().Expand(),
		runner:    core.NewRunner(),
		res:       &core.Results{},
	}
	for i := 0; i < 2*len(p.scenarios); i++ {
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
