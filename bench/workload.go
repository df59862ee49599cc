package main

import (
	"context"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"

	"tasp/internal/campaign"
	"tasp/internal/core"
	"tasp/internal/exp"
)

// The campaign grids are copies kept with the benchmark, so editing specs/
// never moves it. -seed replaces their seed_base.
//
//go:embed workloads/*.json
var gridFiles embed.FS

// goldenPath is the canonical seed-1 `-exp all` output, relative to the
// repository root the benchmark runs from.
const goldenPath = "testdata/golden/experiments-all-mesh.txt"

// campaignWorkers is the campaign pool size: the closed-loop load of every
// grid workload is two workers, each taking its next point when the
// previous one finishes.
const campaignWorkers = 2

// workload is one set of inputs the benchmark runs. The paper workload is
// the serial `-exp all`; the others are campaign grids. README.md records
// why each was chosen.
type workload struct {
	name string
	grid []byte // campaign grid spec (JSON); nil for the paper workload
}

var workloads = []workload{
	{name: "paper"},
	{name: "sweep", grid: embedded("sweep")},
	{name: "secure", grid: embedded("secure")},
	{name: "scale", grid: embedded("scale")},
}

func embedded(name string) []byte {
	data, err := gridFiles.ReadFile("workloads/" + name + ".json")
	if err != nil {
		panic(err) // the files are compiled in; a missing one is a build defect
	}
	return data
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want paper, sweep, secure or scale)", name)
}

// spec parses the workload's grid with its seed axis starting at seed.
func (w workload) spec(seed uint64) (campaign.Spec, error) {
	spec, err := campaign.ParseSpec(w.grid)
	if err != nil {
		return campaign.Spec{}, fmt.Errorf("%s: %w", w.name, err)
	}
	spec.SeedBase = seed
	return spec, nil
}

// size is the number of operations one repetition attempts: grid points,
// or experiments for the paper workload.
func (w workload) size(seed uint64) (int, error) {
	if w.grid == nil {
		return len(exp.Registry("blackscholes")), nil
	}
	spec, err := w.spec(seed)
	if err != nil {
		return 0, err
	}
	return spec.Size(), nil
}

// platformPoints returns the grid index of the first-seed point of every
// distinct platform (every scenario with its seed removed). Seeds are the
// grid's innermost axis, so these are the points carrying the first seed.
func platformPoints(scenarios []campaign.Scenario) []int {
	var out []int
	for i, sc := range scenarios {
		if sc.Seed == scenarios[0].Seed {
			out = append(out, i)
		}
	}
	return out
}

// setup builds the workload's platforms from nothing and returns the
// seconds it took: parsing and validating the grid, then a zero-cycle
// RunInto of every distinct platform on a fresh Runner, which is what a
// campaign worker pays before its first point. The paper workload's
// platform is core.DefaultExperiment's.
func (w workload) setup(seed uint64) (float64, error) {
	start := nowNs()
	var cfgs []core.ExperimentConfig
	if w.grid == nil {
		cfgs = append(cfgs, core.DefaultExperiment())
	} else {
		spec, err := w.spec(seed)
		if err != nil {
			return 0, err
		}
		if err := spec.Validate(); err != nil {
			return 0, err
		}
		scenarios := spec.Expand()
		for _, i := range platformPoints(scenarios) {
			cfg, err := scenarios[i].Config()
			if err != nil {
				return 0, err
			}
			cfgs = append(cfgs, cfg)
		}
	}
	runner := core.NewRunner()
	res := &core.Results{}
	for _, cfg := range cfgs {
		cfg.Warmup, cfg.Measure = 0, 0
		if err := runner.RunInto(cfg, res); err != nil {
			return 0, err
		}
	}
	return float64(nowNs()-start) / 1e9, nil
}

// A repetition sets up at least setupMin times, and up to setupMax times
// while within setupBudgetNs, and reports the median: a set-up of a few
// milliseconds needs many samples to be steady.
const (
	setupMin      = 3
	setupMax      = 25
	setupBudgetNs = 1e9
)

// rep is one untraced repetition's report, which the child process prints
// as its last line of output.
type rep struct {
	tally
	SHA256    string             `json:"output_sha256"`
	Host      map[string]float64 `json:"host"`
	Simulated map[string]float64 `json:"simulated"`
	Go        map[string]float64 `json:"go"`
}

// profiles names the directories that receive one pprof file per child.
type profiles struct{ cpu, mem string }

// runRep runs one untraced repetition in this process: the timed region
// first, through the same entry point a user calls (exp.RunAll, or
// campaign.Run), so that the process's peak resident set is the
// workload's; then the output checks; then the set-up measurements.
func runRep(w workload, seed uint64, outDir string, id int, prof profiles) (rep, error) {
	var golden []byte
	var spec campaign.Spec
	outPath := filepath.Join(outDir, w.name+".jsonl")
	if w.grid == nil {
		if seed == 1 {
			g, err := os.ReadFile(goldenPath)
			if err != nil {
				return rep{}, err
			}
			golden = g
		}
	} else {
		s, err := w.spec(seed)
		if err != nil {
			return rep{}, err
		}
		spec = s
	}

	stopProfile, err := startCPUProfile(prof.cpu, w.name, id)
	if err != nil {
		return rep{}, err
	}
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, _ := rusage()
	gc0, all0 := gcCPU()
	start := nowNs()

	var sections []section
	var runErr error
	if w.grid == nil {
		sections = renderSections(exp.RunAll(exp.Registry("blackscholes"), seed, 1))
	} else {
		_, runErr = campaign.Run(context.Background(), spec, outPath, campaign.Options{Workers: campaignWorkers})
	}

	wall := float64(nowNs()-start) / 1e9
	gc1, all1 := gcCPU()
	cpu1, maxRSS := rusage()
	runtime.ReadMemStats(&mem1)
	if err := stopProfile(); err != nil {
		return rep{}, err
	}
	if err := writeMemProfile(prof.mem, w.name, id); err != nil {
		return rep{}, err
	}

	var r rep
	if w.grid == nil {
		r = checkPaper(sections, golden)
	} else {
		data, err := os.ReadFile(outPath)
		if err != nil && runErr == nil {
			return rep{}, err
		}
		r = checkCampaign(spec, data, runErr)
	}
	r.Host = map[string]float64{
		"wall_s":       wall,
		"points_per_s": float64(r.Attempted) / wall,
		"cpu_s":        cpu1 - cpu0,
		"alloc_mb":     float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20),
		"peak_rss_mb":  maxRSS,
	}
	r.Go = map[string]float64{"go.mallocs_per_point": float64(mem1.Mallocs-mem0.Mallocs) / float64(r.Attempted)}
	if all1 > all0 {
		r.Go["go.gc_cpu_frac"] = (gc1 - gc0) / (all1 - all0)
	}

	var setups []float64
	start = nowNs()
	for len(setups) < setupMin || (len(setups) < setupMax && nowNs()-start < setupBudgetNs) {
		s, err := w.setup(seed)
		if err != nil {
			return r, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s)
	}
	r.Host["setup_s"] = summarize(setups).Median
	return r, nil
}

// rusage returns this process's user+system CPU seconds and its peak
// resident set in MB (Linux reports ru_maxrss in kilobytes).
func rusage() (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// gcCPU reads the runtime's estimate of GC CPU seconds and all CPU seconds.
func gcCPU() (gc, all float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// startCPUProfile profiles the timed region into dir, when dir is set.
func startCPUProfile(dir, name string, id int) (stop func() error, err error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.cpu.pprof", name, id)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeMemProfile writes the allocation profile into dir, when dir is set.
func writeMemProfile(dir, name string, id int) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.mem.pprof", name, id)))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
