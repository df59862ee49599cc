package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"tasp/internal/tab"
)

// childMain runs one repetition, or one traced pass, in this process and
// prints its report as the last line of output.
func childMain(w workload, seed uint64, traced bool, out string, id int, prof profiles, stdout io.Writer) error {
	var report any
	var err error
	if traced {
		report, err = tracePass(w, seed, out)
	} else {
		report, err = runRep(w, seed, out, id, prof)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(report)
}

// results is what one benchmark invocation measured; it is written to
// <out>/results.json and is the input of `bench compare`.
type results struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload's summary: every metric's median and
// quartiles over the repetitions (or traced passes), and the checks.
type workloadResult struct {
	Name    string `json:"name"`
	Correct bool   `json:"correct"`
	tally
	OutputSHA256 string             `json:"output_sha256,omitempty"`
	Metrics      map[string]summary `json:"metrics"`
	Simulated    map[string]float64 `json:"simulated,omitempty"`
}

func (wr *workloadResult) problem(format string, args ...any) {
	wr.Correct = false
	if len(wr.Problems) < maxProblems {
		wr.Problems = append(wr.Problems, fmt.Sprintf(format, args...))
	}
}

// add folds one child's tally into the workload's.
func (wr *workloadResult) add(label string, t tally) {
	wr.Attempted += t.Attempted
	wr.Failed += t.Failed
	for _, p := range t.Problems {
		wr.problem("%s: %s", label, p)
	}
	if t.Failed > 0 {
		wr.Correct = false
	}
}

// host records where a run was measured. The CPU model and the commit are
// read only by whole-benchmark runs; a single-workload run reads nothing
// outside the checkout.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu,omitempty"`
	Commit     string `json:"commit,omitempty"`
	Date       string `json:"date"`
}

func describeHost(full bool) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Date:       epoch.UTC().Format("2006-01-02T15:04:05Z"),
	}
	if !full {
		return h
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// benchmark runs the selected workloads, one child process at a time,
// prints every metric, and writes results.json.
func benchmark(opt options, stdout io.Writer) error {
	res := results{Host: describeHost(!opt.summaryLine), Seed: opt.seed, Trace: opt.trace}
	if opt.trace {
		for _, w := range opt.workloads {
			res.Workloads = append(res.Workloads, traceWorkload(w, opt))
		}
	} else {
		res.Workloads = measure(opt)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(opt.out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printResults(stdout, res)
	fmt.Fprintf(stdout, "results: %s\n", path)
	if opt.summaryLine {
		return printSummaryLine(stdout, res)
	}
	return nil
}

// measure runs the untraced repetitions, interleaving the workloads
// round-robin: R rounds, or with -seconds as many rounds as fit, at least
// minTimedRounds.
func measure(opt options) []workloadResult {
	reps := make([][]rep, len(opt.workloads))
	start := nowNs()
	for round := 0; ; round++ {
		if opt.seconds == 0 && round == rounds {
			break
		}
		if opt.seconds > 0 && round >= minTimedRounds && nowNs()-start >= int64(opt.seconds)*1e9 {
			break
		}
		for i, w := range opt.workloads {
			reps[i] = append(reps[i], spawnRep(w, opt, round))
		}
	}
	out := make([]workloadResult, len(opt.workloads))
	for i, w := range opt.workloads {
		out[i] = aggregate(w, reps[i])
	}
	return out
}

// spawnRep runs one untraced repetition in a child process. A child that
// fails counts every operation of its repetition as failed.
func spawnRep(w workload, opt options, id int) rep {
	args := []string{"-rep", strconv.Itoa(id)}
	if opt.prof.cpu != "" {
		args = append(args, "-cpuprofile", opt.prof.cpu)
	}
	if opt.prof.mem != "" {
		args = append(args, "-memprofile", opt.prof.mem)
	}
	var r rep
	if err := spawn(w, opt, args, &r); err != nil {
		n, _ := w.size(opt.seed)
		return rep{tally: tally{Attempted: n, Failed: n, Problems: []string{err.Error()}}}
	}
	return r
}

// spawn runs this binary as a child for one workload and decodes the JSON
// report on its last line of output.
func spawn(w workload, opt options, extra []string, report any) error {
	args := append([]string{"-child", w.name, "-seed", strconv.FormatUint(opt.seed, 10), "-out", opt.out}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), report); err != nil {
		return fmt.Errorf("%s child: bad report: %w", w.name, err)
	}
	return nil
}

// aggregate summarizes a workload's repetitions. Outputs are deterministic
// per seed, so repetitions that disagree make the run incorrect.
func aggregate(w workload, reps []rep) workloadResult {
	wr := workloadResult{Name: w.name, Correct: true, Metrics: map[string]summary{}}
	for _, m := range endToEnd {
		var vals []float64
		for _, r := range reps {
			if v, ok := r.Host[m.Name]; ok {
				vals = append(vals, v)
			}
		}
		wr.Metrics[m.Name] = summarize(vals)
	}
	for i, r := range reps {
		wr.add(fmt.Sprintf("repetition %d", i), r.tally)
		if r.SHA256 != reps[0].SHA256 {
			wr.problem("repetition %d: output differs from repetition 0", i)
		}
	}
	wr.OutputSHA256, wr.Simulated = reps[0].SHA256, reps[0].Simulated
	return wr
}

// traceWorkload runs one untraced child, which supplies the go.* metrics,
// then traced passes until -seconds have passed (at least one), and
// summarizes every per-layer metric over the passes.
func traceWorkload(w workload, opt options) workloadResult {
	base := spawnRep(w, opt, 0)
	var passes []layerReport
	start := nowNs()
	for k := 0; k == 0 || nowNs()-start < int64(opt.seconds)*1e9; k++ {
		var lr layerReport
		if err := spawn(w, opt, []string{"-trace", "1", "-rep", strconv.Itoa(k)}, &lr); err != nil {
			lr = layerReport{tally: tally{Attempted: 1, Failed: 1, Problems: []string{err.Error()}}}
		}
		passes = append(passes, lr)
	}
	wr := workloadResult{Name: w.name, Correct: true, Metrics: map[string]summary{},
		OutputSHA256: base.SHA256, Simulated: base.Simulated}
	wr.add("untraced", base.tally)
	for k, lr := range passes {
		wr.add(fmt.Sprintf("traced pass %d", k), lr.tally)
	}
	for _, m := range perLayer {
		var vals []float64
		if v, ok := base.Go[m.Name]; ok {
			vals = append(vals, v)
		} else {
			for _, lr := range passes {
				if v, ok := lr.Layers[m.Name]; ok {
					vals = append(vals, v)
				}
			}
		}
		wr.Metrics[m.Name] = summarize(vals)
	}
	return wr
}

// printResults prints every metric of every workload with its unit and
// regression bound, then the simulated outcomes and any problems.
func printResults(w io.Writer, res results) {
	defs := endToEnd
	title := "end-to-end metrics (median over repetitions; bound = allowed regression vs the parent's median)"
	if res.Trace {
		defs = perLayer
		title = "per-layer metrics (median over traced passes)"
	}
	t := tab.Table{Title: title, Columns: []string{"workload", "metric", "unit", "median", "q1", "q3", "n", "bound"}}
	for _, wr := range res.Workloads {
		for _, m := range defs {
			s := wr.Metrics[m.Name]
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
			}
			t.Rows = append(t.Rows, []string{wr.Name, m.Name, m.Unit, num(s.Median), num(s.Q1), num(s.Q3), strconv.Itoa(s.N), bound})
		}
	}
	fmt.Fprintln(w, t.Render())
	st := tab.Table{Title: "checks and simulated outcomes (deterministic per seed; must not change)",
		Columns: []string{"workload", "correct", "attempted", "failed", "output_sha256"}}
	for _, wr := range res.Workloads {
		st.Rows = append(st.Rows, []string{wr.Name, strconv.FormatBool(wr.Correct), strconv.Itoa(wr.Attempted), strconv.Itoa(wr.Failed), wr.OutputSHA256})
	}
	for _, wr := range res.Workloads {
		for _, m := range simulated {
			if v, ok := wr.Simulated[m.Name]; ok {
				st.Notes = append(st.Notes, fmt.Sprintf("%s %s = %s %s", wr.Name, m.Name, num(v), m.Unit))
			}
		}
		for _, p := range wr.Problems {
			st.Notes = append(st.Notes, fmt.Sprintf("%s problem: %s", wr.Name, p))
		}
	}
	fmt.Fprintln(w, st.Render())
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printSummaryLine prints the single-workload JSON summary as the last
// line of output: every end-to-end metric, or with -trace 1 every
// per-layer metric, at its median.
func printSummaryLine(w io.Writer, res results) error {
	wr := res.Workloads[0]
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]value{}}
	for _, m := range defs {
		line.Metrics[m.Name] = value{wr.Metrics[m.Name].Median, m.Unit}
	}
	if line.Attempted == 0 {
		line.Attempted, line.Correct = 1, false
	}
	return json.NewEncoder(w).Encode(line)
}
