package exp

import (
	"fmt"
	"runtime"
	"strings"

	"tasp/internal/noc"
)

// Experiment is one runnable entry of the paper's evaluation: a stable id
// plus a seed-parameterised harness returning rendered tables. Every
// harness builds its own *noc.Network (and any other simulation state) from
// scratch on each call and touches no shared mutable state, which is the
// concurrency contract that lets RunAll fan experiments out across
// goroutines while staying bit-identical to serial execution.
type Experiment struct {
	ID  string
	Run func(seed uint64) ([]Table, error)
}

// Result is the outcome of one experiment run.
type Result struct {
	ID     string
	Tables []Table
	Err    error
}

// Registry returns the canonical, ordered list of experiments behind the
// paper's tables/figures and the extension studies — the same order
// `cmd/experiments -exp all` prints. bench selects the traffic trace used
// by fig1 (the other experiments fix their own workloads).
func Registry(bench string) []Experiment {
	return RegistryFor(bench, noc.DefaultConfig())
}

// RegistryFor is Registry with an explicit platform for the workload
// characterisation (fig1) — the `-topology` knob. The paper-reproduction
// experiments pin their own platform (the 4x4 mesh the paper evaluates), so
// only fig1 follows ncfg; cross-substrate attack results come from the
// campaign presets instead (`cmd/campaign aggregate -preset cross-topology`
// or `-preset scale`).
func RegistryFor(bench string, ncfg noc.Config) []Experiment {
	one := func(t Table, err error) ([]Table, error) {
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	}
	return []Experiment{
		{ID: "fig1", Run: func(uint64) ([]Table, error) {
			f, err := RunFigure1(bench, ncfg)
			if err != nil {
				return nil, err
			}
			return []Table{f.MatrixTable(), f.HotspotTable(ncfg), f.LinkTable()}, nil
		}},
		{ID: "fig2", Run: func(uint64) ([]Table, error) {
			return []Table{RunFigure2().TableOf()}, nil
		}},
		{ID: "table1", Run: func(uint64) ([]Table, error) {
			return []Table{RunTableI()}, nil
		}},
		{ID: "fig9", Run: func(uint64) ([]Table, error) {
			return []Table{RunFigure9()}, nil
		}},
		{ID: "table2", Run: func(uint64) ([]Table, error) {
			return []Table{RunTableII()}, nil
		}},
		{ID: "fig8", Run: func(uint64) ([]Table, error) {
			return RunFigure8(), nil
		}},
		{ID: "fig10", Run: func(seed uint64) ([]Table, error) {
			pts, err := RunFigure10(seed)
			if err != nil {
				return nil, err
			}
			return []Table{Figure10Table(pts)}, nil
		}},
		{ID: "fig11", Run: func(seed uint64) ([]Table, error) {
			f, err := RunFigure11(seed)
			if err != nil {
				return nil, err
			}
			return f.Tables(), nil
		}},
		{ID: "fig12", Run: func(seed uint64) ([]Table, error) {
			f, err := RunFigure12(seed)
			if err != nil {
				return nil, err
			}
			return f.Tables(), nil
		}},
		{ID: "headline", Run: func(seed uint64) ([]Table, error) {
			return one(Headline(seed))
		}},
		{ID: "ablations", Run: func(seed uint64) ([]Table, error) {
			// The ablations are independent, so they run concurrently too:
			// one ablation's points fill the workers another leaves idle.
			abls := []struct {
				name string
				fn   func() (Table, error)
			}{
				{"retrans-scheme", func() (Table, error) { return AblationRetransScheme(seed) }},
				{"routing-vs-flood", func() (Table, error) { return AblationRoutingUnderFlood(seed) }},
				{"payload-counter", func() (Table, error) { return AblationPayloadCounter(), nil }},
				{"detector-history", func() (Table, error) { return AblationDetectorHistory(seed) }},
				{"escalation-order", func() (Table, error) { return AblationEscalationOrder(seed) }},
				{"ht-placement", func() (Table, error) { return AblationPlacement(seed) }},
			}
			out := make([]Table, len(abls))
			err := fanOut(DefaultWorkers(), len(abls), func(_, i int) error {
				var err error
				if out[i], err = abls[i].fn(); err != nil {
					return fmt.Errorf("%s: %w", abls[i].name, err)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			return out, nil
		}},
		{ID: "detectability", Run: func(seed uint64) ([]Table, error) {
			return []Table{DetectabilityStudy(seed)}, nil
		}},
		{ID: "migration", Run: func(seed uint64) ([]Table, error) {
			return one(MigrationStudy(seed))
		}},
		{ID: "closedloop", Run: func(seed uint64) ([]Table, error) {
			return one(ClosedLoopStudy(seed))
		}},
		{ID: "saturation", Run: func(uint64) ([]Table, error) {
			return one(SaturationCurve())
		}},
	}
}

// Extensions returns studies addressable by id but excluded from the
// canonical `-exp all` set, so adding one never perturbs the regression
// baseline of the canonical output. The cross-topology and scale studies
// are not here: specs/cross-topology.json and specs/scale.json run them
// through the campaign engine, and the `cross-topology` and `scale`
// aggregate presets render their tables.
func Extensions() []Experiment {
	return []Experiment{
		{ID: "locate", Run: func(seed uint64) ([]Table, error) {
			t, err := AblationLocate(seed)
			if err != nil {
				return nil, err
			}
			return []Table{t}, nil
		}},
		{ID: "adversary", Run: func(seed uint64) ([]Table, error) {
			t, err := AblationAdversary(seed)
			if err != nil {
				return nil, err
			}
			return []Table{t}, nil
		}},
		{ID: "adaptive", Run: func(seed uint64) ([]Table, error) {
			t, err := AblationAdaptive(seed)
			if err != nil {
				return nil, err
			}
			return []Table{t}, nil
		}},
	}
}

// Lookup returns the registry entry with the given id, or false.
func Lookup(exps []Experiment, id string) (Experiment, bool) {
	for _, e := range exps {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the registry ids in order.
func IDs(exps []Experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// DefaultWorkers is one worker per CPU the Go scheduler may use
// (GOMAXPROCS). It is the worker count RunAll uses when given workers == 0,
// and the width every harness fans its own independent simulation points
// across, so GOMAXPROCS=1 is the fully serial run.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunAll executes the experiments with one seed, fanned out across at most
// `workers` goroutines (<= 1 runs one experiment at a time on the calling
// goroutine, 0 means DefaultWorkers). Results come back in registry order
// regardless of completion order, so rendered output is byte-identical to a
// serial run.
//
// Concurrency contract: each Experiment.Run call owns every piece of
// simulation state it touches (networks, RNGs, traffic models, core
// runners) and shares nothing mutable with other experiments, and each
// harness fans its own independent points across DefaultWorkers goroutines
// under the same rule, collecting their results by index. The determinism
// regression tests and the -race suite in this package enforce the
// contract.
func RunAll(exps []Experiment, seed uint64, workers int) []Result {
	if workers == 0 {
		workers = DefaultWorkers()
	}
	results := make([]Result, len(exps))
	// Every experiment reports its error in its own Result.
	_ = fanOut(workers, len(exps), func(_, i int) error {
		ts, err := exps[i].Run(seed)
		results[i] = Result{ID: exps[i].ID, Tables: ts, Err: err}
		return nil
	})
	return results
}

// RenderAll renders a result set exactly as `cmd/experiments -exp all`
// prints it: a banner per experiment followed by its tables. The first
// experiment error is returned (with its id) after rendering stops.
func RenderAll(results []Result) (string, error) {
	var sb strings.Builder
	for _, res := range results {
		fmt.Fprintf(&sb, "==== %s ====\n\n", res.ID)
		if res.Err != nil {
			return sb.String(), fmt.Errorf("%s: %w", res.ID, res.Err)
		}
		for _, t := range res.Tables {
			sb.WriteString(t.Render())
			sb.WriteString("\n")
		}
	}
	return sb.String(), nil
}
