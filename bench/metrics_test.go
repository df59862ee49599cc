package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	for _, c := range []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 2}, 1, 2, 4},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(c.vals)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("%v: got %v/%v/%v, want %v/%v/%v", c.vals, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a reason", i, w.Name, workloads[i].name)
		}
	}
	if got, want := jsonOf(t, bf.EndToEnd), jsonOf(t, endToEnd); got != want {
		t.Errorf("end_to_end differs from the declarations:\n got %s\nwant %s", got, want)
	}
	if got, want := jsonOf(t, bf.PerLayer), jsonOf(t, perLayer); got != want {
		t.Errorf("per_layer differs from the declarations:\n got %s\nwant %s", got, want)
	}
}

func jsonOf(t *testing.T, v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEveryMetricIsEmittedWithItsUnit runs one untraced repetition and one
// traced pass of a two-point grid and checks the summary lines a caller
// reads: every declared metric, with its unit.
func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	w := workload{name: "tiny", grid: []byte(`{
		"attacks": [{"kind": "none"}, {"kind": "dest"}],
		"mitigations": ["s2s-lob"],
		"warmup": 100, "measure": 100
	}`)}
	dir := t.TempDir()
	r, err := runRep(w, 1, dir, 0, profiles{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if r.Host[m.Name] <= 0 {
			t.Errorf("%s = %v, want a positive measurement", m.Name, r.Host[m.Name])
		}
	}
	lr, err := tracePass(w, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := lr.Layers[m.Name]; !ok {
			t.Errorf("traced pass lacks %s", m.Name)
		}
	}
	untraced := results{Workloads: []workloadResult{aggregate(w, []rep{r, r})}}
	traced := results{Trace: true, Workloads: []workloadResult{{Name: w.name, Correct: true, tally: lr.tally, Metrics: map[string]summary{}}}}
	for _, m := range perLayer {
		traced.Workloads[0].Metrics[m.Name] = summarize([]float64{lr.Layers[m.Name]})
	}
	for _, c := range []struct {
		res  results
		defs []metricDef
	}{{untraced, endToEnd}, {traced, perLayer}} {
		var out strings.Builder
		if err := printSummaryLine(&out, c.res); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(out.String()), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(c.defs) {
			t.Errorf("summary line %s", out.String())
		}
		for _, m := range c.defs {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("summary line: %s = %+v, want unit %s", m.Name, got, m.Unit)
			}
		}
	}
}
