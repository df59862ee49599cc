package exp

import (
	"context"
	"sync/atomic"

	"tasp/internal/core"
)

// scenarios runs a harness's points: an experiment states them as
// core.ExperimentConfig values, most built from core.DefaultExperiment (the
// paper's Figure 11 protocol), and runs them as one batch, fanned out
// across DefaultWorkers goroutines. Each worker owns one core.Runner (a
// Runner is not safe for concurrent use), so simulation arenas are reused
// across the points a worker runs, exactly like a campaign worker. The
// results (and hence the golden experiment output) do not depend on which
// worker ran which point — runner/Run equivalence is pinned by core's
// TestRunnerMatchesRun and the golden regression.
type scenarios struct{ runners []*core.Runner }

func newScenarios() scenarios {
	rs := make([]*core.Runner, DefaultWorkers())
	for i := range rs {
		rs[i] = core.NewRunner()
	}
	return scenarios{rs}
}

// runConfigs runs every configuration, returning the results in input
// order. The configurations are handed out in fork groups (core.Groups), so
// points whose warm-ups the network cannot tell apart simulate it once.
// Each runner takes groups until none is left (core.Runner.RunGroups),
// carrying on past a failing point. The error is that of the lowest-index
// configuration that failed first in its group: a group stops at its first
// failure, and RunGroup runs a group's members in index order but for an
// attacked rerouting point and its twin, which it defers only once they
// validate.
func (s scenarios) runConfigs(cfgs []core.ExperimentConfig) ([]*core.Results, error) {
	out := make([]*core.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	cfg := func(i int) (core.ExperimentConfig, error) { return cfgs[i], nil }
	into := func(i int) *core.Results {
		out[i] = &core.Results{}
		return out[i]
	}
	groups := core.Groups(len(cfgs), len(s.runners), cfg)
	var next atomic.Int64
	fanOut(len(s.runners), min(len(s.runners), len(groups)), func(w, _ int) error {
		for {
			i, err := s.runners[w].RunGroups(context.TODO(), groups, &next, cfg, into, nil)
			if err == nil {
				return nil
			}
			out[i], errs[i] = nil, err
		}
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
