package exp

import (
	"testing"

	"tasp/internal/core"
)

// TestRunConfigsReportsTheInvalidPoint: a batch with one configuration that
// fails to run (a one-bit payload counter) reports that configuration's
// error and leaves its result nil, while every other point still runs, at
// one and two runners.
func TestRunConfigsReportsTheInvalidPoint(t *testing.T) {
	cfgs := make([]core.ExperimentConfig, 4)
	for i := range cfgs {
		cfgs[i] = core.DefaultExperiment()
		cfgs[i].Warmup, cfgs[i].Measure, cfgs[i].Seed = 100, 100, uint64(1+i%2)
	}
	cfgs[2].Attack.YBits = 1
	const want = "core: Attack.YBits = 1 out of range: 0 (default) or 2..72"
	for _, workers := range []int{1, 2} {
		s := scenarios{}
		for range workers {
			s.runners = append(s.runners, core.NewRunner())
		}
		out, err := s.runConfigs(cfgs)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: runConfigs = %v, want %q", workers, err, want)
		}
		for i, res := range out {
			if (res == nil) != (i == 2) {
				t.Errorf("workers=%d: point %d result %v, want nil only for the invalid point", workers, i, res)
			}
		}
	}
}
