package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkNetworkStep/uniform-8 \t  127735\t      9215 ns/op\t       117.2 flits-in-flight\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("benchmark line not parsed")
	}
	if b.Name != "BenchmarkNetworkStep/uniform" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", b.Name)
	}
	if b.Runs != 127735 {
		t.Errorf("runs = %d", b.Runs)
	}
	for unit, want := range map[string]float64{"ns/op": 9215, "allocs/op": 0, "B/op": 0, "flits-in-flight": 117.2} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("%s = %g, want %g", unit, got, want)
		}
	}
}

func TestParseBenchLineRejectsNonBenchLines(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: tasp/internal/noc",
		"PASS",
		"ok  \ttasp/internal/noc\t2.153s",
		"cpu: Intel(R) Xeon(R) Processor @ 2.70GHz",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("non-benchmark line parsed: %q", line)
		}
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkNetworkStep/idle-8":        "BenchmarkNetworkStep/idle",
		"BenchmarkNetworkStep/uniform-8x8-8": "BenchmarkNetworkStep/uniform-8x8",
		"BenchmarkNetworkStep/uniform-8x8":   "BenchmarkNetworkStep/uniform-8x8",
		"BenchmarkX":                         "BenchmarkX",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

const sampleOutput = `goos: linux
goarch: amd64
pkg: tasp/internal/noc
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkNetworkStep/idle-8     	     100	         2.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkStep/uniform-8  	     100	      9300 ns/op	     117.2 flits-in-flight	       0 B/op	       0 allocs/op
PASS
ok  	tasp/internal/noc	0.5s
`

func TestGatePassesZeroAlloc(t *testing.T) {
	rep, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil || len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benches, err=%v", len(rep.Benchmarks), err)
	}
	var buf strings.Builder
	if failures := gate(&buf, rep.Benchmarks); failures != 0 {
		t.Fatalf("zero-alloc run failed the gate:\n%s", buf.String())
	}
	out := buf.String()
	for _, name := range []string{"BenchmarkNetworkStep/idle ", "BenchmarkNetworkStep/uniform "} {
		if !strings.Contains(out, name) {
			t.Errorf("%s missing from the report:\n%s", name, out)
		}
	}
	// The gate prints no timing: its short runs are not comparable with
	// the snapshots' medians.
	if strings.Contains(out, "ns/op") {
		t.Errorf("the report prints ns/op:\n%s", out)
	}
}

func TestGateFailsOnNonzeroAllocs(t *testing.T) {
	leaky := `BenchmarkNetworkStep/uniform-8  	     100	      9300 ns/op	       48 B/op	       3 allocs/op
`
	rep, err := parseBenchOutput(strings.NewReader(leaky))
	if err != nil || len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benches, err=%v", len(rep.Benchmarks), err)
	}
	var buf strings.Builder
	if failures := gate(&buf, rep.Benchmarks); failures != 1 {
		t.Fatalf("gate let %d allocs/op through:\n%s", int(rep.Benchmarks[0].Metrics["allocs/op"]), buf.String())
	}
	if !strings.Contains(buf.String(), "ALLOC BUDGET EXCEEDED") {
		t.Errorf("offender not named in report:\n%s", buf.String())
	}
}

// TestJSONReportRoundTrips: a -json document carries the committed
// snapshots' fields (label, host lines, per-benchmark package, runs and
// metrics) and decodes back to the report it was written from.
func TestJSONReportRoundTrips(t *testing.T) {
	rep, err := parseBenchOutput(strings.NewReader(sampleOutput + `pkg: tasp
BenchmarkNetworkStepAttack-8  	     100	      5600 ns/op	       0 B/op	       0 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	rep.Label = "hot path"
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "BENCH_2026-10-17.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeReport(f, rep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"label": "hot path"`, `"goos": "linux"`, `"goarch": "amd64"`,
		`"cpu": "Intel(R) Xeon(R) Processor @ 2.70GHz"`, `"pkg": "tasp/internal/noc"`, `"pkg": "tasp"`, `"runs": 100`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("document lacks %s:\n%s", field, raw)
		}
	}
	var back report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("the document decodes to %+v, want %+v", back, rep)
	}
	if got := back.Benchmarks[1].Metrics["flits-in-flight"]; got != 117.2 {
		t.Errorf("custom metric lost in the round trip: %v", got)
	}
}

// TestFoldTakesMediansPerBenchmark: -json folds the repeated lines of one
// benchmark into the median of each metric with its minimum, maximum and
// line count, keeps same-named benchmarks of different packages apart and
// lists the benchmarks in the order they first appear.
func TestFoldTakesMediansPerBenchmark(t *testing.T) {
	rep, err := parseBenchOutput(strings.NewReader(`pkg: tasp/internal/noc
BenchmarkNetworkStep/idle-8     	     100	        21 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkStep/uniform-8  	     300	      9300 ns/op	     117.2 flits-in-flight	       0 B/op	       0 allocs/op
BenchmarkNetworkStep/idle-8     	     120	        13 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkStep/uniform-8  	     200	      8100 ns/op	     117.0 flits-in-flight	       0 B/op	       0 allocs/op
BenchmarkNetworkStep/idle-8     	     110	        17 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkStep/idle-8     	     130	        22 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetworkStep/idle-8     	      90	        16 ns/op	       0 B/op	       0 allocs/op
pkg: tasp
BenchmarkNetworkStep/idle-8     	     100	        40 ns/op	       8 B/op	       1 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	got := fold(rep.Benchmarks)
	want := []bench{
		{Name: "BenchmarkNetworkStep/idle", Pkg: "tasp/internal/noc", Runs: 110,
			Metrics: map[string]float64{"ns/op": 17, "B/op": 0, "allocs/op": 0},
			Spread: map[string]spread{
				"ns/op": {Min: 13, Max: 22, N: 5}, "B/op": {N: 5}, "allocs/op": {N: 5},
			}},
		{Name: "BenchmarkNetworkStep/uniform", Pkg: "tasp/internal/noc", Runs: 250,
			Metrics: map[string]float64{"ns/op": 8700, "flits-in-flight": 117.1, "B/op": 0, "allocs/op": 0},
			Spread: map[string]spread{
				"ns/op": {Min: 8100, Max: 9300, N: 2}, "flits-in-flight": {Min: 117.0, Max: 117.2, N: 2},
				"B/op": {N: 2}, "allocs/op": {N: 2},
			}},
		{Name: "BenchmarkNetworkStep/idle", Pkg: "tasp", Runs: 100,
			Metrics: map[string]float64{"ns/op": 40, "B/op": 8, "allocs/op": 1},
			Spread: map[string]spread{
				"ns/op": {Min: 40, Max: 40, N: 1}, "B/op": {Min: 8, Max: 8, N: 1}, "allocs/op": {Min: 1, Max: 1, N: 1},
			}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold = %+v,\nwant %+v", got, want)
	}
}
