package exp

import (
	"tasp/internal/campaign"
	"tasp/internal/core"
)

// scenarios adapts the harnesses onto the declarative campaign layer: an
// experiment states its points as campaign.Scenario values and runs them as
// one batch, fanned out across DefaultWorkers goroutines. Each worker owns
// one core.Runner (a Runner is not safe for concurrent use), so simulation
// arenas are reused across the points a worker runs, exactly like a
// campaign worker. The results (and hence the golden experiment output) do
// not depend on which worker ran which point — runner/Run equivalence is
// pinned by core's TestRunnerMatchesRun and the golden regression.
//
// Experiments whose knobs a scenario cannot express (explicit link lists,
// detector-history and retransmission-scheme ablations, custom traffic
// models) state their points as core.ExperimentConfig values and run them
// through runConfigs on the same per-worker runners.
type scenarios struct{ runners []*core.Runner }

func newScenarios() scenarios {
	rs := make([]*core.Runner, DefaultWorkers())
	for i := range rs {
		rs[i] = core.NewRunner()
	}
	return scenarios{rs}
}

// runAll lowers every scenario and runs it, returning the results in input
// order. The error is that of the lowest-index scenario that failed.
func (s scenarios) runAll(scs []campaign.Scenario) ([]*core.Results, error) {
	cfgs := make([]core.ExperimentConfig, len(scs))
	for i, sc := range scs {
		var err error
		if cfgs[i], err = sc.Config(); err != nil {
			return nil, err
		}
	}
	return s.runConfigs(cfgs)
}

// runConfigs runs every configuration, returning the results in input
// order. The configurations are handed out in fork groups (core.Groups), so
// points whose warm-ups the network cannot tell apart simulate it once. The
// error is that of the lowest-index configuration that failed: a group stops
// at its first failure, and its later members have higher indices.
func (s scenarios) runConfigs(cfgs []core.ExperimentConfig) ([]*core.Results, error) {
	out := make([]*core.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	groups := core.Groups(len(cfgs), len(s.runners), func(i int) (core.ExperimentConfig, error) { return cfgs[i], nil })
	fanOut(len(s.runners), len(groups), func(w, g int) error {
		members := groups[g]
		sub := make([]core.ExperimentConfig, len(members))
		for k, i := range members {
			sub[k] = cfgs[i]
		}
		cur := 0
		err := s.runners[w].RunGroup(sub, func(k int) *core.Results {
			cur = k
			out[members[k]] = &core.Results{}
			return out[members[k]]
		}, nil)
		if err != nil {
			out[members[cur]], errs[members[cur]] = nil, err
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// figure11Scenario is the paper's standard attack protocol (Figure 11:
// blackscholes, dest-0 TASP on the two hottest target-flow links,
// 1500-cycle phases) as a declarative scenario — the twin of
// core.DefaultExperiment.
func figure11Scenario(seed uint64) campaign.Scenario {
	return campaign.Scenario{
		Benchmark: "blackscholes",
		Seed:      seed,
		Attack:    campaign.AttackSpec{Kind: "dest"},
	}
}
