package main

import (
	"strings"
	"testing"
)

// replayGrids cover every feature the workloads use, on short runs: the
// flip, drop, misroute, throttle and collude families; the none, s2s-lob
// and rerouting mitigations; secure-ack with localization; the mesh, torus
// and ring; and an 8x8 platform.
var replayGrids = []struct {
	name, grid string
	layers     []string // layer metrics the grid must exercise
}{
	{"mitigations", `{
		"topologies": ["mesh", "torus", "ring"],
		"attacks": [{"kind": "none"}, {"kind": "dest"}],
		"mitigations": ["none", "s2s-lob", "rerouting"],
		"warmup": 100, "measure": 250
	}`, []string{"core.wire_nack_frac", "core.wire_obfuscated_frac", "reroute.applies_per_point"}},
	{"secure", `{
		"topologies": ["mesh", "torus", "ring"],
		"attacks": [
			{"kind": "none"},
			{"kind": "dest", "mode": "drop"},
			{"kind": "dest", "mode": "misroute"},
			{"kind": "dest", "mode": "throttle"},
			{"kind": "dest", "mode": "collude", "num_links": 3}
		],
		"warmup": 200, "measure": 500,
		"secure_ack": true, "locate": true
	}`, []string{"core.wire_swallow_frac", "detect.windows_per_point", "locate.ranks_per_point"}},
	{"8x8", `{
		"dims": [{"width": 8, "height": 8}],
		"benchmarks": ["fft"],
		"attacks": [{"kind": "dest"}],
		"warmup": 100, "measure": 150
	}`, []string{"core.wire_nack_frac"}},
}

// TestReplayMatchesRunner checks the traced replay against RunInto on
// every point of the grids: equal counters and equal record bytes.
func TestReplayMatchesRunner(t *testing.T) {
	for _, g := range replayGrids {
		t.Run(g.name, func(t *testing.T) {
			w := workload{name: g.name, grid: []byte(g.grid)}
			spec, err := w.spec(1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := tracePass(w, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted != spec.Size() {
				t.Fatalf("replayed %d points with %d failures, want %d clean: %v", r.Attempted, r.Failed, spec.Size(), r.Problems)
			}
			for _, name := range g.layers {
				if r.Layers[name] <= 0 {
					t.Errorf("%s = %v: the grid does not exercise it", name, r.Layers[name])
				}
			}
		})
	}
}

func TestReplayRejectsUnsupportedKnobs(t *testing.T) {
	w := workload{name: "recover", grid: []byte(`{"attacks": [{"kind": "dest", "mode": "drop"}],
		"warmup": 50, "measure": 50, "secure_ack": true, "recover": true}`)}
	r, err := tracePass(w, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 || !strings.Contains(strings.Join(r.Problems, ""), "recovery is not supported") {
		t.Fatalf("recovery point: %d failures %v, want the replay to refuse it", r.Failed, r.Problems)
	}
}
