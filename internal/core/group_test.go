package core_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tasp/internal/campaign"
	"tasp/internal/core"
	"tasp/internal/noc"
)

// digest fingerprints everything a point produced: every observable field
// of its Results, and the outcome bytes of its campaign record.
func digest(res *core.Results) [sha256.Size]byte {
	var rec campaign.Record
	rec.Fill(res)
	return sha256.Sum256(append([]byte(core.Summarize(res)), rec.AppendJSONL(nil)...))
}

// parallel runs fn(worker, i) for every i in [0, n) on GOMAXPROCS
// goroutines and returns the first error by index.
func parallel(n int, fn func(w, i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(w, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runAlone runs every configuration on a fresh Runner and returns each
// point's digest and the cycles stepped in all.
func runAlone(t *testing.T, cfgs []core.ExperimentConfig) ([][sha256.Size]byte, int64) {
	t.Helper()
	var steps atomic.Int64
	out := make([][sha256.Size]byte, len(cfgs))
	if err := parallel(len(cfgs), func(_, i int) error {
		r := core.NewRunner()
		core.SetAudit(r, func(*noc.Network) error { steps.Add(1); return nil })
		res, err := r.Run(cfgs[i])
		if err != nil {
			return fmt.Errorf("point %d alone: %w", i, err)
		}
		out[i] = digest(res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out, steps.Load()
}

// runGrouped runs each group through RunGroup, one Runner per worker, and
// returns each point's digest and the cycles stepped in all. The network
// is audited at the first cycle a resumed member steps and every 32nd.
func runGrouped(t *testing.T, cfgs []core.ExperimentConfig, groups [][]int) ([][sha256.Size]byte, int64) {
	t.Helper()
	var steps atomic.Int64
	runners := make([]*core.Runner, runtime.GOMAXPROCS(0))
	for w := range runners {
		runners[w] = core.NewRunner()
		core.SetAudit(runners[w], func(n *noc.Network) error {
			steps.Add(1)
			if n.Cycle()%32 == 0 || n.Cycle() == cfgs[0].EnableCycle() {
				return n.CheckInvariants()
			}
			return nil
		})
	}
	out := make([][sha256.Size]byte, len(cfgs))
	if err := parallel(len(groups), func(w, g int) error {
		members := groups[g]
		sub := make([]core.ExperimentConfig, len(members))
		for k, i := range members {
			sub[k] = cfgs[i]
		}
		res := &core.Results{}
		return runners[w].RunGroup(sub, func(int) *core.Results { return res }, func(k int, res *core.Results) error {
			out[members[k]] = digest(res)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	return out, steps.Load()
}

// lowerGrid reads a campaign grid and lowers every point.
func lowerGrid(t *testing.T, path string) []core.ExperimentConfig {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []core.ExperimentConfig
	for i, sc := range spec.Expand() {
		cfg, err := sc.Config()
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestGroupedEqualsAlone is the fork's end-to-end contract: for every
// committed grid — the benchmark's workloads and every spec — running each
// fork group through RunGroup gives every point exactly the results and
// record it gets alone on a fresh Runner, while the stepped-cycle count
// drops by the shared warm-ups. For the benchmark grids the grouping and
// the count are pinned: a resumed member steps from the enable cycle to
// the end, Measure+1 cycles, because cycle EnableCycle() is the first its
// armed trojans can strike in.
func TestGroupedEqualsAlone(t *testing.T) {
	type pin struct {
		sizes          map[int]int // group size -> groups of that size
		alone, grouped int64
	}
	bench := map[string]pin{
		"secure.json": {map[int]int{5: 36}, 540_000, 36*3000 + 144*1501},
		"sweep.json":  {map[int]int{4: 135, 2: 135}, 486_000, 270*600 + (135*3+135)*301},
		"scale.json":  {map[int]int{2: 8}, 80_000, 8*5000 + 8*4001},
	}
	specs, err := filepath.Glob("../../specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"../../bench/workloads/secure.json", "../../bench/workloads/sweep.json", "../../bench/workloads/scale.json"}
	for _, path := range append(paths, specs...) {
		name := filepath.Base(filepath.Dir(path)) + "/" + filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			cfgs := lowerGrid(t, path)
			isBench := filepath.Base(filepath.Dir(path)) == "workloads"
			if testing.Short() && !isBench && len(cfgs) > 200 {
				t.Skipf("%d points; -short runs the benchmark grids and the small specs", len(cfgs))
			}
			groups := core.Groups(len(cfgs), runtime.GOMAXPROCS(0), func(i int) (core.ExperimentConfig, error) { return cfgs[i], nil })
			want, alone := runAlone(t, cfgs)
			got, grouped := runGrouped(t, cfgs, groups)
			for i := range cfgs {
				if got[i] != want[i] {
					t.Errorf("point %d: grouped run differs from the point run alone", i)
				}
			}
			sizes := map[int]int{}
			for _, g := range groups {
				sizes[len(g)]++
			}
			t.Logf("%d points in %d groups %v: stepped cycles %d alone, %d grouped", len(cfgs), len(groups), sizes, alone, grouped)
			if p, ok := bench[filepath.Base(path)]; ok && isBench {
				if fmt.Sprint(sizes) != fmt.Sprint(p.sizes) || alone != p.alone || grouped != p.grouped {
					t.Errorf("groups %v, stepped %d alone and %d grouped; want groups %v, %d and %d",
						sizes, alone, grouped, p.sizes, p.alone, p.grouped)
				}
			}
			if grouped > alone || (len(groups) < len(cfgs) && grouped == alone) {
				t.Errorf("grouping stepped %d cycles against %d alone", grouped, alone)
			}
		})
	}
}

// TestIneligibleGroupsRunUnforked: TDM, end-to-end scrambling and transient
// faults carry pre-enable state the checkpoint does not hold, and a warm-up
// that reconfigured the network (here, pre-disabled links) cannot be
// resumed on a pristine one. Groups never pairs the first three, and even
// handed to RunGroup as one group, every such pair simulates both warm-ups
// and matches its points run alone.
func TestIneligibleGroupsRunUnforked(t *testing.T) {
	pair := func(mut func(*core.ExperimentConfig)) []core.ExperimentConfig {
		cfg := core.DefaultExperiment()
		cfg.Warmup, cfg.Measure = 300, 300
		mut(&cfg)
		clean := cfg
		clean.Attack.Enabled = false
		return []core.ExperimentConfig{clean, cfg}
	}
	for _, tc := range []struct {
		name     string
		cfgs     []core.ExperimentConfig
		pairable bool
	}{
		{"tdm", pair(func(c *core.ExperimentConfig) { c.Mitigation = core.TDMQoS }), false},
		{"e2e", pair(func(c *core.ExperimentConfig) { c.Mitigation = core.E2EObfuscation }), false},
		{"transient faults", pair(func(c *core.ExperimentConfig) { c.Mitigation = core.S2SLOb; c.TransientBER = 1e-4 }), false},
		{"pre-disabled links", pair(func(c *core.ExperimentConfig) { c.PredisabledLinks = []int{5} }), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groups := core.Groups(len(tc.cfgs), 1, func(i int) (core.ExperimentConfig, error) { return tc.cfgs[i], nil })
			if paired := len(groups) == 1; paired != tc.pairable {
				t.Fatalf("Groups = %v", groups)
			}
			want, alone := runAlone(t, tc.cfgs)
			got, grouped := runGrouped(t, tc.cfgs, [][]int{{0, 1}})
			if got[0] != want[0] || got[1] != want[1] {
				t.Error("the group's results differ from its points run alone")
			}
			if grouped != alone || alone != 2*600 {
				t.Errorf("stepped %d cycles grouped, %d alone; want both 1200 (no fork)", grouped, alone)
			}
		})
	}
}
