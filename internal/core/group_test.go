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
	"tasp/internal/tasp"
)

// outcome fingerprints everything a point produced: every observable field
// of its Results but the Config, and the outcome bytes of its campaign
// record.
func outcome(res *core.Results) []byte {
	var rec campaign.Record
	rec.Fill(res)
	return append([]byte(core.Summarize(res)), rec.AppendJSONL(nil)...)
}

// digest fingerprints a point's outcome and the Config, defaults applied,
// that its Results report.
func digest(res *core.Results) [sha256.Size]byte {
	return sha256.Sum256(fmt.Appendf(outcome(res), "%+v", res.Config))
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
// is audited every 32nd cycle and at the first cycle a resumed member
// steps: the enable cycle, or the reroute cycle at the default delay
// (no grid sets another).
func runGrouped(t *testing.T, cfgs []core.ExperimentConfig, groups [][]int) ([][sha256.Size]byte, int64) {
	t.Helper()
	var steps atomic.Int64
	enable := cfgs[0].EnableCycle()
	runners := make([]*core.Runner, runtime.GOMAXPROCS(0))
	for w := range runners {
		runners[w] = core.NewRunner()
		core.SetAudit(runners[w], func(n *noc.Network) error {
			steps.Add(1)
			if c := n.Cycle(); c%32 == 0 || c == enable || c == enable+200 {
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
func lowerGrid(t testing.TB, path string) []core.ExperimentConfig {
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
// fork group through RunGroup gives every point exactly the results, Config
// and record it gets alone on a fresh Runner, while the stepped-cycle count
// drops by the shared warm-ups, the twin forks and the copied runs. For the
// benchmark grids the grouping and the count are pinned: a member resumed
// from the warm-up steps from the enable cycle to the end, Measure+1
// cycles, because cycle EnableCycle() is the first its armed trojans can
// strike in; a member resumed from its twin steps from its reroute cycle
// to the end, Measure-RerouteDetectDelay+1 cycles; and a copied member
// steps none. In sweep, each (topology, benchmark, seed) group simulates
// its clean point under none once, copies it for s2s-lob and rerouting,
// resumes the attacked points under s2s-lob and none from its warm-up, and
// the attacked point under rerouting from the one under none.
func TestGroupedEqualsAlone(t *testing.T) {
	type pin struct {
		sizes          map[int]int // group size -> groups of that size
		alone, grouped int64
	}
	bench := map[string]pin{
		"secure.json": {map[int]int{5: 36}, 540_000, 36*3000 + 144*1501},
		"sweep.json":  {map[int]int{6: 135}, 486_000, 135*600 + 270*301 + 135*101},
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
// and matches its points run alone. The twin fork has two ineligible
// cases of its own, in groups of a clean point, an attacked one under none
// (the twin) and the attacked one under rerouting: a twin whose secure-ack
// monitor convicts and recovers before the reroute cycle declines its
// checkpoint, so the rerouting member resumes the warm-up; and a rerouting
// member whose reroute cycle lies past its last cycle never reroutes, so
// it copies its twin's run.
func TestIneligibleGroupsRunUnforked(t *testing.T) {
	base := core.DefaultExperiment()
	base.Warmup, base.Measure = 300, 300
	pair := func(mut func(*core.ExperimentConfig)) []core.ExperimentConfig {
		cfg := base
		mut(&cfg)
		clean := cfg
		clean.Attack.Enabled = false
		return []core.ExperimentConfig{clean, cfg}
	}
	twins := func(mut func(*core.ExperimentConfig)) []core.ExperimentConfig {
		cfgs := pair(mut)
		rr := cfgs[1]
		rr.Mitigation = core.Rerouting
		return append(cfgs, rr)
	}
	for _, tc := range []struct {
		name     string
		cfgs     []core.ExperimentConfig
		pairable bool
		grouped  int64 // cycles the group steps
	}{
		{"tdm", pair(func(c *core.ExperimentConfig) { c.Mitigation = core.TDMQoS }), false, 2 * 600},
		{"e2e", pair(func(c *core.ExperimentConfig) { c.Mitigation = core.E2EObfuscation }), false, 2 * 600},
		{"transient faults", pair(func(c *core.ExperimentConfig) { c.Mitigation = core.S2SLOb; c.TransientBER = 1e-4 }), false, 2 * 600},
		{"pre-disabled links", pair(func(c *core.ExperimentConfig) { c.PredisabledLinks = []int{5} }), true, 2 * 600},
		{"conviction before the reroute", twins(func(c *core.ExperimentConfig) {
			c.Attack.Kind = tasp.KindDrop
			c.SecureAck, c.RecoverOnConvict = true, true
		}), true, 600 + 2*301},
		{"reroute past the last cycle", twins(func(c *core.ExperimentConfig) { c.RerouteDetectDelay = 301 }), true, 600 + 301},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groups := core.Groups(len(tc.cfgs), 1, func(i int) (core.ExperimentConfig, error) { return tc.cfgs[i], nil })
			if paired := len(groups) == 1; paired != tc.pairable {
				t.Fatalf("Groups = %v", groups)
			}
			all := make([]int, len(tc.cfgs))
			for i := range all {
				all[i] = i
			}
			want, alone := runAlone(t, tc.cfgs)
			got, grouped := runGrouped(t, tc.cfgs, [][]int{all})
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("point %d: the group's result differs from the point run alone", i)
				}
			}
			if alone != int64(len(tc.cfgs))*600 || grouped != tc.grouped {
				t.Errorf("stepped %d cycles grouped, %d alone; want %d and %d", grouped, alone, tc.grouped, len(tc.cfgs)*600)
			}
		})
	}
}

// TestInertMitigationsAreOneRun is the premise of copied runs: on a
// fault-free point, none, s2s-lob and rerouting are one run — a mitigated
// wire on a clean link sends every flit plain, and rerouting never acts —
// on every topology, with the monitors off and with secure-ack, locate and
// recovery on. Run alone, the three give one outcome. With the attack
// enabled each mitigation must differ from none, or the comparison shows
// nothing.
func TestInertMitigationsAreOneRun(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "ring"} {
		for _, monitors := range []bool{false, true} {
			for _, seed := range []uint64{1, 2} {
				cfg := core.DefaultExperiment()
				cfg.Noc.Topo, cfg.Seed = topo, seed
				cfg.Warmup, cfg.Measure = 300, 300
				cfg.SecureAck, cfg.Locate, cfg.RecoverOnConvict = monitors, monitors, monitors
				var cfgs []core.ExperimentConfig
				for _, attack := range []bool{false, true} {
					for _, m := range []core.Mitigation{core.NoMitigation, core.S2SLOb, core.Rerouting} {
						c := cfg
						c.Attack.Enabled, c.Mitigation = attack, m
						cfgs = append(cfgs, c)
					}
				}
				name := fmt.Sprintf("%s/monitors=%v/seed=%d", topo, monitors, seed)
				t.Run(name, func(t *testing.T) {
					got := make([][sha256.Size]byte, len(cfgs))
					for i, c := range cfgs {
						res, err := core.Run(c)
						if err != nil {
							t.Fatal(err)
						}
						got[i] = sha256.Sum256(outcome(res))
					}
					if got[1] != got[0] || got[2] != got[0] {
						t.Error("a clean point's run depends on its mitigation")
					}
					if got[4] == got[3] || got[5] == got[3] {
						t.Error("an attacked point runs alike under none and a mitigation; the clean comparison is vacuous")
					}
				})
			}
		}
	}
}

// TestGroupMembersInAnyOrder: RunGroup's roles depend on the order of a
// group — which member checkpoints, which run is kept for a copy, whether
// the attacked rerouting member comes before or after its twin. Every
// rotation of a sweep group (clean and attacked, each under none, s2s-lob
// and rerouting), forward and reversed, gives every point its results
// alone. Among them, the attacked s2s-lob member resumes an unmitigated
// member's warm-up, and a clean point under rerouting is kept and copied
// to the others.
func TestGroupMembersInAnyOrder(t *testing.T) {
	var sweep []core.ExperimentConfig
	for _, attack := range []bool{false, true} {
		for _, m := range []core.Mitigation{core.NoMitigation, core.S2SLOb, core.Rerouting} {
			c := core.DefaultExperiment()
			c.Warmup, c.Measure = 300, 300
			c.Attack.Enabled, c.Mitigation = attack, m
			sweep = append(sweep, c)
		}
	}
	const twin, rerouting = 3, 5 // the attacked points under none and rerouting
	want, _ := runAlone(t, sweep)
	before := map[bool]int{} // orders by whether rerouting precedes its twin
	for _, reversed := range []bool{false, true} {
		for rot := range sweep {
			order := make([]int, len(sweep))
			for k := range order {
				order[k] = (k + rot) % len(sweep)
				if reversed {
					order[k] = len(sweep) - 1 - order[k]
				}
			}
			cfgs := make([]core.ExperimentConfig, len(order))
			all := make([]int, len(order))
			pos := map[int]int{}
			for k, i := range order {
				cfgs[k], all[k], pos[i] = sweep[i], k, k
			}
			before[pos[rerouting] < pos[twin]]++
			got, stepped := runGrouped(t, cfgs, [][]int{all})
			for k, i := range order {
				if got[k] != want[i] {
					t.Errorf("order %v: point %d differs from its run alone", order, i)
				}
			}
			// One whole run, two copies of the clean one, two attacked
			// members resumed from the warm-up and the rerouting one from
			// its twin.
			if stepped != 600+2*301+101 {
				t.Errorf("order %v: stepped %d cycles, want %d", order, stepped, 600+2*301+101)
			}
		}
	}
	if before[true] == 0 || before[false] == 0 {
		t.Errorf("orders with rerouting before and after its twin: %v", before)
	}
}
