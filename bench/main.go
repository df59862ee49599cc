// Command bench is the simulator's end-to-end benchmark. It runs four
// workloads through the entry points users call (exp.RunAll for the paper,
// campaign.Run for the grids), checks every output, and reports host
// metrics end to end or, with -trace 1, per layer. Run it from the
// repository root through bench/run.sh; README.md describes the workloads
// and metrics.
//
//	bench [-seed S] [-trace 1] [-out DIR] [-cpuprofile DIR] [-memprofile DIR]
//	bench -workload NAME -seed S -seconds T -trace 0|1
//	bench compare -parent RESULTS... -change RESULTS...
//
// The selected workloads (all four, or the one -workload names) repeat R=5
// times, or with -seconds until that many seconds have passed and at least
// three times, interleaved round-robin. Each repetition is a child process
// of this binary, run one at a time. A table of every metric is printed;
// with -workload the last line of output is a JSON summary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// rounds is R, the repetitions per workload of a run without -seconds.
const rounds = 5

// minTimedRounds is the fewest repetitions a -seconds run makes, so that
// every median has quartiles around it.
const minTimedRounds = 3

// procs is the children's GOMAXPROCS: two, the campaign pool size, unless
// the host has fewer CPUs.
func procs() int {
	if n := runtime.NumCPU(); n < campaignWorkers {
		return n
	}
	return campaignWorkers
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the settings of one benchmark invocation.
type options struct {
	seed        uint64
	seconds     int
	trace       bool
	out         string
	prof        profiles
	workloads   []workload
	summaryLine bool // -workload given: print the JSON summary line
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload: paper, sweep, secure or scale (default: all, interleaved)")
	seed := fs.Uint64("seed", 1, "workload seed: the grids' seed_base and the paper's seed")
	seconds := fs.Int("seconds", 0, "repeat until this many seconds have passed, at least 3 times (0: exactly R=5 times)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	out := fs.String("out", ".bench_build/out", "directory for results.json, trace files and workload outputs")
	cpuDir := fs.String("cpuprofile", "", "directory for one CPU profile per untraced child")
	memDir := fs.String("memprofile", "", "directory for one allocation profile per untraced child")
	child := fs.String("child", "", "internal: run one repetition of this workload in this process")
	rep := fs.Int("rep", 0, "internal: the child's repetition number")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds < 0 {
		return fmt.Errorf("-seconds must not be negative")
	}
	prof := profiles{cpu: *cpuDir, mem: *memDir}
	for _, dir := range []string{*out, prof.cpu, prof.mem} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if *child != "" {
		w, err := findWorkload(*child)
		if err != nil {
			return err
		}
		runtime.GOMAXPROCS(procs())
		return childMain(w, *seed, *trace == 1, *out, *rep, prof, stdout)
	}

	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, prof: prof, workloads: workloads}
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		opt.workloads, opt.summaryLine = []workload{w}, true
	}
	return benchmark(opt, stdout)
}
