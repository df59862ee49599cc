package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tasp/internal/tasp"
)

// summarize renders every observable field of a Results deterministically,
// so two runs can be compared for exact behavioural equality.
func summarize(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "infected=%v\n", res.InfectedLinks)
	fmt.Fprintf(&b, "atEnable=%+v\nfinal=%+v\n", res.AtEnable, res.Final)
	fmt.Fprintf(&b, "tput=%.9f lat=%.9f\n", res.Throughput, res.AvgLatency)
	fmt.Fprintf(&b, "ht=%d/%d obf=%d stall=%d bist=%d\n",
		res.HTMatches, res.HTInjections, res.Obfuscated, res.StallCycles, res.BISTScans)
	fmt.Fprintf(&b, "rerouted=%d victim=%d firstTrojan=%d\n",
		res.ReroutedAt, res.VictimDelivered, res.FirstTrojanAt)
	fmt.Fprintf(&b, "latency: %s mean=%.9f\n", res.Latency, res.Latency.Mean())
	ids := make([]int, 0, len(res.Detections))
	for id := range res.Detections { //nocvet:orderfree collecting keys for sorting
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "det %d %v %s\n", id, res.Detections[id], res.TriggerScopes[id])
	}
	for _, s := range res.Samples {
		fmt.Fprintf(&b, "sample %+v\n", s)
	}
	for _, s := range res.Suspects {
		fmt.Fprintf(&b, "suspect %+v\n", s)
	}
	for _, s := range res.SuspectsTelemetry {
		fmt.Fprintf(&b, "suspectTel %+v\n", s)
	}
	for _, s := range res.SuspectTrace {
		fmt.Fprintf(&b, "trace %+v\n", s)
	}
	return b.String()
}

// runnerCases spans every mitigation, attack kinds, localization, transient
// noise, a second and a third topology, and reconfiguration — the
// behaviours a reused arena must reproduce exactly. The torus and ring
// points with predisabled links install rerouted tables and reclassify
// the dateline VC classes (reroute.ApplySafe); the plain point after each
// runs on the arena Reset restored.
func runnerCases() []ExperimentConfig {
	short := func(mut func(*ExperimentConfig)) ExperimentConfig {
		cfg := DefaultExperiment()
		cfg.Warmup, cfg.Measure = 400, 400
		mut(&cfg)
		return cfg
	}
	return []ExperimentConfig{
		short(func(c *ExperimentConfig) { c.Attack.Enabled = false }),
		short(func(c *ExperimentConfig) {}),
		short(func(c *ExperimentConfig) { c.Mitigation = S2SLOb }),
		short(func(c *ExperimentConfig) { c.Mitigation = S2SLOb; c.TransientBER = 1e-5 }),
		short(func(c *ExperimentConfig) { c.Mitigation = E2EObfuscation }),
		short(func(c *ExperimentConfig) { c.Mitigation = TDMQoS }),
		short(func(c *ExperimentConfig) { c.Mitigation = Rerouting }),
		short(func(c *ExperimentConfig) { c.Mitigation = S2SLOb; c.Locate = true }),
		short(func(c *ExperimentConfig) { c.Seed = 9; c.Attack.Target = tasp.ForVC(1) }),
		short(func(c *ExperimentConfig) {
			c.Noc.Topo = "torus"
			c.Mitigation = S2SLOb
			c.Benchmark = "fft"
		}),
		short(func(c *ExperimentConfig) { c.Noc.Topo = "torus"; c.PredisabledLinks = []int{3, 50} }),
		short(func(c *ExperimentConfig) { c.Noc.Topo = "torus" }),
		short(func(c *ExperimentConfig) { c.Noc.Topo = "ring"; c.PredisabledLinks = []int{0, 1} }),
		short(func(c *ExperimentConfig) { c.Noc.Topo = "ring" }),
	}
}

// TestRunnerMatchesRun is the arena-reuse equivalence contract: a single
// Runner executing many heterogeneous points back to back (and revisiting
// earlier ones with warm arenas) must produce exactly the results of a
// fresh one-shot Run for every point.
func TestRunnerMatchesRun(t *testing.T) {
	cases := runnerCases()
	want := make([]string, len(cases))
	for i, cfg := range cases {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("case %d: fresh run: %v", i, err)
		}
		want[i] = summarize(res)
	}
	r := NewRunner()
	res := &Results{}
	// Two passes: the first builds each arena, the second revisits every
	// point on a warm, dirty arena.
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range cases {
			if err := r.RunInto(cfg, res); err != nil {
				t.Fatalf("pass %d case %d: %v", pass, i, err)
			}
			if got := summarize(res); got != want[i] {
				t.Errorf("pass %d case %d (%s): reused arena diverged from fresh run\nfresh:\n%s\nreused:\n%s",
					pass, i, cases[i].Mitigation, want[i], got)
			}
		}
	}
}

// TestRunnerSteadyStateAllocs pins the campaign engine's per-point
// allocation contract: after warm-up, repeated RunInto calls on the same
// platform allocate nothing for the none and s2s-lob mitigations (the
// paper's headline configurations) and for the rerouting baseline, whose
// route table the arena keeps.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	for _, mit := range []Mitigation{NoMitigation, S2SLOb, Rerouting} {
		cfg := DefaultExperiment()
		cfg.Warmup, cfg.Measure = 300, 300
		cfg.Mitigation = mit
		r := NewRunner()
		res := &Results{}
		seed := uint64(1)
		point := func() {
			cfg.Seed = seed
			seed++
			if err := r.RunInto(cfg, res); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the arena, freelists and result storage past their high-water
		// marks: early points occasionally grow a recycler (detector records,
		// rx reassembly states) to a new maximum.
		for i := 0; i < 40; i++ {
			point()
		}
		if avg := testing.AllocsPerRun(10, point); avg > 0.1 {
			t.Errorf("%s: warmed RunInto allocates %.2f times per point; budget is 0", mit, avg)
		}
	}
}

// BenchmarkRunnerPoint measures one warm campaign point end to end
// (4x4 mesh, 800 cycles, attack on, no mitigation) — the unit of work the
// campaign engine schedules. Wired into the CI allocation gate.
func BenchmarkRunnerPoint(b *testing.B) {
	cfg := DefaultExperiment()
	cfg.Warmup, cfg.Measure = 400, 400
	r := NewRunner()
	res := &Results{}
	for i := 0; i < 3; i++ {
		cfg.Seed = uint64(i + 100)
		if err := r.RunInto(cfg, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if err := r.RunInto(cfg, res); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunIntoRejectsBadConfigs: RunInto validates the whole configuration
// before it touches the arena, so out-of-range ids fail with an error naming
// the field and its range instead of panicking (link 999 used to index past
// the wire table) or running a silently different experiment.
func TestRunIntoRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*ExperimentConfig)
		want   string
	}{
		{"infected link past the mesh", func(c *ExperimentConfig) { c.Attack.Links = []int{3, 999} }, "Attack.Links entry = 999 out of range 0..47"},
		{"negative infected link", func(c *ExperimentConfig) { c.Attack.Links = []int{-1} }, "Attack.Links entry = -1 out of range 0..47"},
		{"pre-disabled link past the torus", func(c *ExperimentConfig) { c.Noc.Topo = "torus"; c.PredisabledLinks = []int{64} }, "PredisabledLinks entry = 64 out of range 0..63"},
		{"dest router past the mesh", func(c *ExperimentConfig) { c.Attack.Target = tasp.ForDest(20) }, "Attack.Target.DstR = 20 out of range 0..15"},
		{"full target src past the mesh", func(c *ExperimentConfig) { c.Attack.Target = tasp.ForFull(16, 0, 0, 0, 0) }, "Attack.Target.SrcR = 16 out of range 0..15"},
		{"vc past the port", func(c *ExperimentConfig) { c.Attack.Target = tasp.ForVC(4) }, "Attack.Target.VC = 4 out of range 0..3"},
		{"hijack past the mesh", func(c *ExperimentConfig) { c.Attack.Kind = tasp.KindMisroute; c.Attack.Hijack = 99 }, "Attack.Hijack = 99 out of range: -1 (auto) or 0..15"},
		{"recover without secure-ack", func(c *ExperimentConfig) { c.RecoverOnConvict = true }, "RecoverOnConvict requires SecureAck"},
		{"bad platform", func(c *ExperimentConfig) { c.Noc.VCs = 0 }, "VCs must be 1..8"},
		{"negative warm-up", func(c *ExperimentConfig) { c.Warmup = -100 }, "Warmup = -100 out of range: must be >= 0"},
		{"negative measure", func(c *ExperimentConfig) { c.Measure = -1 }, "Measure = -1 out of range: must be >= 0"},
		{"enable at the run's end", func(c *ExperimentConfig) { c.Attack.EnableAt = 100 }, "Attack.EnableAt = 100 out of range: 0 (end of warm-up) or below Warmup+Measure = 100"},
		{"enable past the run", func(c *ExperimentConfig) { c.Attack.EnableAt = 5000 }, "Attack.EnableAt = 5000 out of range"},
		{"enable in a zero-cycle run", func(c *ExperimentConfig) { c.Warmup, c.Measure, c.Attack.EnableAt = 0, 0, 1 }, "Attack.EnableAt = 1 out of range"},
		{"one-bit payload counter", func(c *ExperimentConfig) { c.Attack.YBits = 1 }, "Attack.YBits = 1 out of range: 0 (default) or 2..72"},
		{"payload counter past the codeword", func(c *ExperimentConfig) { c.Attack.YBits = 73 }, "Attack.YBits = 73 out of range: 0 (default) or 2..72"},
		{"negative payload counter", func(c *ExperimentConfig) { c.Attack.YBits = -1 }, "Attack.YBits = -1 out of range"},
		{"negative infected-link count", func(c *ExperimentConfig) { c.Attack.NumLinks = -3 }, "Attack.NumLinks = -3 out of range: must be >= 0"},
		{"negative duty period", func(c *ExperimentConfig) { c.Attack.DutyPeriod = -1 }, "Attack.DutyPeriod = -1 out of range: must be >= 0"},
		{"negative duty span", func(c *ExperimentConfig) { c.Attack.DutyActive = -1 }, "Attack.DutyActive = -1 out of range: must be >= 0"},
		{"negative sampling period", func(c *ExperimentConfig) { c.SampleEvery = -3 }, "SampleEvery = -3 out of range: must be >= 0"},
		{"negative reroute delay", func(c *ExperimentConfig) { c.RerouteDetectDelay = -1 }, "RerouteDetectDelay = -1 out of range: must be >= 0"},
		{"negative detector history", func(c *ExperimentConfig) { c.DetectorHistory = -1 }, "DetectorHistory = -1 out of range: must be >= 0"},
		{"throttle span past its period", func(c *ExperimentConfig) {
			c.Attack.Kind, c.Attack.DutyPeriod, c.Attack.DutyActive = tasp.KindThrottle, 40, 41
		}, "Attack.DutyActive = 41 out of range: 0 (default) or 1..40, the throttle's DutyPeriod"},
		{"throttle span past the default period", func(c *ExperimentConfig) { c.Attack.Kind, c.Attack.DutyActive = tasp.KindThrottle, 51 }, "Attack.DutyActive = 51 out of range: 0 (default) or 1..50"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultExperiment()
			cfg.Warmup, cfg.Measure = 50, 50
			tc.mutate(&cfg)
			err := NewRunner().RunInto(cfg, &Results{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunInto = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	cfg := DefaultExperiment()
	cfg.Attack.Links, cfg.PredisabledLinks = []int{0, 47}, []int{5}
	cfg.Attack.Kind, cfg.Attack.Hijack = tasp.KindMisroute, 15
	cfg.SecureAck, cfg.RecoverOnConvict = true, true
	cfg.Attack.YBits = 72
	if err := cfg.Validate(); err != nil {
		t.Fatalf("in-range configuration rejected: %v", err)
	}
	throttle := DefaultExperiment()
	throttle.Attack.Kind, throttle.Attack.DutyPeriod, throttle.Attack.DutyActive = tasp.KindThrottle, 40, 40
	if err := throttle.Validate(); err != nil {
		t.Fatalf("throttle striking its whole period rejected: %v", err)
	}
	cfg.Attack.EnableAt = uint64(cfg.Warmup+cfg.Measure) - 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("enable cycle in the run's last cycle rejected: %v", err)
	}
	zero := DefaultExperiment()
	zero.Warmup, zero.Measure = 0, 0 // a set-up-only run, attack enabled
	if err := NewRunner().RunInto(zero, &Results{}); err != nil {
		t.Fatalf("zero-cycle run rejected: %v", err)
	}
}

// TestThroughputCountsFromTheEnableCycle: Throughput is the deliveries
// from the enable cycle on over the cycles they took, Warmup+Measure minus
// the enable cycle. At the default enable cycle that is Measure; an
// explicit one moves both the AtEnable snapshot and the divisor.
func TestThroughputCountsFromTheEnableCycle(t *testing.T) {
	for _, enableAt := range []uint64{0, 500, 1500} {
		cfg := DefaultExperiment()
		cfg.Attack.Enabled = false
		cfg.Warmup, cfg.Measure = 1000, 1000
		cfg.Attack.EnableAt = enableAt
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counted := 2000 - cfg.EnableCycle()
		delivered := res.Final.DeliveredPackets - res.AtEnable.DeliveredPackets
		if res.AtEnable.DeliveredPackets == 0 || delivered == 0 {
			t.Fatalf("EnableAt %d: AtEnable %d, delivered after it %d; want both nonzero", enableAt, res.AtEnable.DeliveredPackets, delivered)
		}
		if want := float64(delivered) / float64(counted); res.Throughput != want {
			t.Errorf("EnableAt %d: Throughput = %v, want %d packets / %d cycles = %v", enableAt, res.Throughput, delivered, counted, want)
		}
	}
}
