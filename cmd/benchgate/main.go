// Command benchgate is the one parser for `go test -bench -benchmem` text
// (read on stdin). By default it is the CI allocation gate for the hot-path
// benchmarks: it fails (exit 1) if any benchmark reports a nonzero
// allocs/op, and prints each benchmark's ns/op next to the most recent
// BENCH_<date>.json baseline so a run that passes the alloc budget but
// drifts in time is visible in the job log. With -json it instead writes
// the run as a BENCH_<date>.json document (`make bench-json`), the format
// the gate reads its baselines from.
//
// Usage:
//
//	go test -bench=NetworkStep -benchtime=100x -benchmem -run xxx ./internal/noc . | go run ./cmd/benchgate
//	go test -bench=NetworkStep -benchmem -run xxx ./internal/noc . | go run ./cmd/benchgate -json -label hotpath
//
// benchgate is a Go program so the parsing and the gate itself are under
// test (main_test.go), the same standard the rest of the tree is held to.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// report is a benchmark run: the host lines of the transcript and one entry
// per benchmark line. It is also the BENCH_<date>.json document.
type report struct {
	Label      string  `json:"label,omitempty"`
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []bench `json:"benchmarks"`
}

// bench is one parsed benchmark result line.
type bench struct {
	Name    string             `json:"name"` // GOMAXPROCS suffix ("-8") stripped
	Pkg     string             `json:"pkg,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"` // "ns/op", "allocs/op", "B/op", extra ReportMetric units
}

// parseBenchLine parses one `Benchmark... <runs> <value> <unit>...` line.
// Non-benchmark lines (goos:, pkg:, PASS, ok) return ok=false.
func parseBenchLine(line string) (bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return bench{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return bench{}, false
	}
	b := bench{Name: stripProcs(f[0]), Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return bench{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

// stripProcs removes the trailing -<GOMAXPROCS> suffix the testing package
// appends to benchmark names. A sub-benchmark name that itself ends in
// -<something non-numeric> ("uniform-8x8") is left alone.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// parseBenchOutput parses a whole `go test -bench` transcript. Each
// benchmark is tagged with the package the last "pkg:" line named, so a run
// over several packages keeps same-named benchmarks apart.
func parseBenchOutput(r io.Reader) (report, error) {
	var rep report
	var pkg string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line); ok {
			b.Pkg = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
			continue
		}
		key, val, _ := strings.Cut(line, ":")
		switch val = strings.TrimSpace(val); key {
		case "goos":
			rep.Goos = val
		case "goarch":
			rep.Goarch = val
		case "cpu":
			rep.CPU = val
		case "pkg":
			pkg = val
		}
	}
	return rep, sc.Err()
}

// latestBaseline finds the lexicographically latest BENCH_*.json in dir
// (the ISO dates in the names make that the newest) and returns its name
// plus a bench-name → metrics index, keyed without the GOMAXPROCS suffix a
// snapshot taken on a multi-CPU host carries. A missing baseline is not an
// error: the alloc gate still runs, only the deltas are skipped.
func latestBaseline(dir string) (string, map[string]map[string]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		return "", nil, err
	}
	sort.Strings(paths)
	path := paths[len(paths)-1]
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var bf report
	if err := json.Unmarshal(raw, &bf); err != nil {
		return "", nil, fmt.Errorf("%s: %v", path, err)
	}
	idx := make(map[string]map[string]float64, len(bf.Benchmarks))
	for _, b := range bf.Benchmarks {
		idx[stripProcs(b.Name)] = b.Metrics
	}
	return filepath.Base(path), idx, nil
}

// writeReport writes rep as an indented BENCH_<date>.json document.
func writeReport(w io.Writer, rep report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// gate prints one line per benchmark (alloc verdict plus ns/op delta vs the
// baseline) and returns the number of benchmarks over the alloc budget.
func gate(w io.Writer, benches []bench, baseName string, baseline map[string]map[string]float64) int {
	failures := 0
	for _, b := range benches {
		allocs := b.Metrics["allocs/op"]
		verdict := "ok"
		if allocs > 0 {
			verdict = "ALLOC BUDGET EXCEEDED"
			failures++
		}
		delta := "no baseline"
		if base, ok := baseline[b.Name]; ok {
			if baseNs := base["ns/op"]; baseNs > 0 {
				ns := b.Metrics["ns/op"]
				delta = fmt.Sprintf("%.4g ns/op vs %.4g in %s (%+.1f%%)",
					ns, baseNs, baseName, 100*(ns-baseNs)/baseNs)
			}
		}
		fmt.Fprintf(w, "%-52s %g allocs/op [%s]  %s\n", b.Name, allocs, verdict, delta)
	}
	return failures
}

func main() {
	baselineDir := flag.String("baselines", ".", "directory holding BENCH_<date>.json baselines")
	asJSON := flag.Bool("json", false, "write the run as a BENCH_<date>.json document instead of gating it")
	label := flag.String("label", "", "free-form label recorded in the -json document")
	flag.Parse()

	rep, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines on stdin (did the test run fail?)")
		os.Exit(2)
	}
	if *asJSON {
		rep.Label = *label
		if err := writeReport(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		return
	}
	baseName, baseline, err := latestBaseline(*baselineDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if failures := gate(os.Stdout, rep.Benchmarks, baseName, baseline); failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) over the zero-alloc budget\n", failures)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within the zero-alloc budget\n", len(rep.Benchmarks))
}
