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

	rep, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil || len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benches, err=%v", len(rep.Benchmarks), err)
	}
	var buf strings.Builder
	if failures := gate(&buf, rep.Benchmarks, baseName, baseline); failures != 0 {
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
	rep, err := parseBenchOutput(strings.NewReader(leaky))
	if err != nil || len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benches, err=%v", len(rep.Benchmarks), err)
	}
	var buf strings.Builder
	if failures := gate(&buf, rep.Benchmarks, "", nil); failures != 1 {
		t.Fatalf("gate let %d allocs/op through:\n%s", int(rep.Benchmarks[0].Metrics["allocs/op"]), buf.String())
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

// TestJSONReportRoundTrips: a -json document carries the committed
// snapshots' fields (label, host lines, per-benchmark package, runs and
// metrics) and is read back by latestBaseline as the next gate's baseline.
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
	name, baseline, err := latestBaseline(dir)
	if err != nil || name != "BENCH_2026-10-17.json" {
		t.Fatalf("latestBaseline = %q, %v", name, err)
	}
	for bench, ns := range map[string]float64{
		"BenchmarkNetworkStep/idle":    2.10,
		"BenchmarkNetworkStep/uniform": 9300,
		"BenchmarkNetworkStepAttack":   5600,
	} {
		if got := baseline[bench]["ns/op"]; got != ns {
			t.Errorf("%s: ns/op %v after the round trip, want %v", bench, got, ns)
		}
	}
	if got := baseline["BenchmarkNetworkStep/uniform"]["flits-in-flight"]; got != 117.2 {
		t.Errorf("custom metric lost in the round trip: %v", got)
	}
}
