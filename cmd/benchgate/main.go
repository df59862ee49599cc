// Command benchgate is the one parser for `go test -bench -benchmem` text
// (read on stdin). By default it is the CI allocation gate for the hot-path
// benchmarks: it prints each benchmark's allocs/op and fails (exit 1) if
// any is nonzero. It prints no timing: the gate's short fixed-iteration
// runs are not comparable with the default-benchtime medians of the
// BENCH_<date>.json snapshots. With -json it instead writes the run as a
// BENCH_<date>.json document (`make bench-json`), folding the repeated
// lines of one benchmark (`go test -count`) into the median of each
// metric, with its minimum, maximum and number of lines.
//
// Usage:
//
//	go test -bench=NetworkStep -benchtime=100x -benchmem -run xxx ./internal/noc . | go run ./cmd/benchgate
//	go test -bench=NetworkStep -benchmem -count=5 -run xxx ./internal/noc . | go run ./cmd/benchgate -json -label hotpath
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
	"slices"
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

// bench is one parsed benchmark result line, or in a -json document the
// median of one benchmark's lines (fold).
type bench struct {
	Name    string             `json:"name"` // GOMAXPROCS suffix ("-8") stripped
	Pkg     string             `json:"pkg,omitempty"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"` // "ns/op", "allocs/op", "B/op", extra ReportMetric units
	// Spread is each metric's range over the folded lines.
	Spread map[string]spread `json:"spread,omitempty"`
}

// spread is the range of one metric over a benchmark's folded lines.
type spread struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
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

// fold merges the lines of each (pkg, name) benchmark into one, in the
// order the benchmarks first appear: each metric and the iteration count
// become the median of the lines' values (the mean of the middle two for
// an even count), and Spread holds each metric's minimum, maximum and
// number of lines. One run of a benchmark varies too much on a shared
// host for a snapshot to rest on it.
func fold(benches []bench) []bench {
	type key struct{ pkg, name string }
	var order []key
	lines := map[key][]bench{}
	for _, b := range benches {
		k := key{b.Pkg, b.Name}
		if lines[k] == nil {
			order = append(order, k)
		}
		lines[k] = append(lines[k], b)
	}
	out := make([]bench, 0, len(order))
	for _, k := range order {
		bs := lines[k]
		runs := make([]float64, len(bs))
		values := map[string][]float64{}
		for i, b := range bs {
			runs[i] = float64(b.Runs)
			for unit, v := range b.Metrics { //nocvet:orderfree each unit's values keep the lines' order
				values[unit] = append(values[unit], v)
			}
		}
		f := bench{Name: k.name, Pkg: k.pkg, Runs: int64(median(runs)),
			Metrics: map[string]float64{}, Spread: map[string]spread{}}
		for unit, vs := range values { //nocvet:orderfree each unit is folded on its own
			f.Metrics[unit] = median(vs)
			f.Spread[unit] = spread{Min: slices.Min(vs), Max: slices.Max(vs), N: len(vs)}
		}
		out = append(out, f)
	}
	return out
}

// median returns the median of vs, sorting vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// writeReport writes rep as an indented BENCH_<date>.json document.
func writeReport(w io.Writer, rep report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// gate prints one line per benchmark with its alloc verdict and returns
// the number of benchmarks over the alloc budget.
func gate(w io.Writer, benches []bench) int {
	failures := 0
	for _, b := range benches {
		allocs := b.Metrics["allocs/op"]
		verdict := "ok"
		if allocs > 0 {
			verdict = "ALLOC BUDGET EXCEEDED"
			failures++
		}
		fmt.Fprintf(w, "%-52s %g allocs/op [%s]\n", b.Name, allocs, verdict)
	}
	return failures
}

func main() {
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
		rep.Benchmarks = fold(rep.Benchmarks)
		if err := writeReport(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		return
	}
	if failures := gate(os.Stdout, rep.Benchmarks); failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) over the zero-alloc budget\n", failures)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within the zero-alloc budget\n", len(rep.Benchmarks))
}
