package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkNetworkStep/uniform-8 \t  127735\t      9215 ns/op\t       117.2 flits-in-flight\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("benchmark line not parsed")
	}
	if b.name != "BenchmarkNetworkStep/uniform" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", b.name)
	}
	if b.runs != 127735 {
		t.Errorf("runs = %d", b.runs)
	}
	for unit, want := range map[string]float64{"ns/op": 9215, "allocs/op": 0, "B/op": 0, "flits-in-flight": 117.2} {
		if got := b.metrics[unit]; got != want {
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

func TestGatePassesZeroAllocAndPrintsDelta(t *testing.T) {
	dir := t.TempDir()
	old := `{"benchmarks":[{"name":"BenchmarkNetworkStep/idle","metrics":{"ns/op":9.0,"allocs/op":0}}]}`
	latest := `{"benchmarks":[
		{"name":"BenchmarkNetworkStep/idle","metrics":{"ns/op":2.0,"allocs/op":0}},
		{"name":"BenchmarkNetworkStep/uniform","metrics":{"ns/op":9215,"allocs/op":0}}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2026-08-01.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2026-08-08.json"), []byte(latest), 0o644); err != nil {
		t.Fatal(err)
	}

	baseName, baseline, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if baseName != "BENCH_2026-08-08.json" {
		t.Fatalf("picked %q, want the lexicographically latest baseline", baseName)
	}

	benches, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil || len(benches) != 2 {
		t.Fatalf("parsed %d benches, err=%v", len(benches), err)
	}
	var buf strings.Builder
	if failures := gate(&buf, benches, baseName, baseline); failures != 0 {
		t.Fatalf("zero-alloc run failed the gate:\n%s", buf.String())
	}
	out := buf.String()
	// The idle delta must be computed against the latest baseline (2.0),
	// not the older one (9.0): 2.10 vs 2.0 is +5.0%.
	if !strings.Contains(out, "+5.0%") {
		t.Errorf("idle ns/op delta vs latest baseline missing:\n%s", out)
	}
	if !strings.Contains(out, "BENCH_2026-08-08.json") {
		t.Errorf("baseline file name missing from report:\n%s", out)
	}
}

func TestGateFailsOnNonzeroAllocs(t *testing.T) {
	leaky := `BenchmarkNetworkStep/uniform-8  	     100	      9300 ns/op	       48 B/op	       3 allocs/op
`
	benches, err := parseBenchOutput(strings.NewReader(leaky))
	if err != nil || len(benches) != 1 {
		t.Fatalf("parsed %d benches, err=%v", len(benches), err)
	}
	var buf strings.Builder
	if failures := gate(&buf, benches, "", nil); failures != 1 {
		t.Fatalf("gate let %d allocs/op through:\n%s", int(benches[0].metrics["allocs/op"]), buf.String())
	}
	if !strings.Contains(buf.String(), "ALLOC BUDGET EXCEEDED") {
		t.Errorf("offender not named in report:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "no baseline") {
		t.Errorf("missing-baseline case not reported:\n%s", buf.String())
	}
}

func TestLatestBaselineMissingDir(t *testing.T) {
	name, baseline, err := latestBaseline(t.TempDir())
	if err != nil || name != "" || baseline != nil {
		t.Fatalf("empty dir should yield no baseline and no error: %q %v %v", name, baseline, err)
	}
}

// TestLatestBaselineStripsProcs: a snapshot recorded on a multi-CPU host
// names its benchmarks with the -<GOMAXPROCS> suffix; the index must match
// the suffix-free names the gate parses from live output.
func TestLatestBaselineStripsProcs(t *testing.T) {
	dir := t.TempDir()
	snap := `{"benchmarks": [{"name": "BenchmarkNetworkStep/uniform-8x8-2", "metrics": {"ns/op": 9688}}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2026-10-16.json"), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	_, baseline, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := baseline["BenchmarkNetworkStep/uniform-8x8"]["ns/op"]; got != 9688 {
		t.Fatalf("baseline for the suffix-free name: ns/op %v, index %v", got, baseline)
	}
}
