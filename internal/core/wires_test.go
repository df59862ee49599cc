package core

import (
	"slices"
	"testing"

	"tasp/internal/noc"
	"tasp/internal/tasp"
)

// TestSecureWiresOnlyWhereAFaultCanStrike: on a scale platform (8x8 mesh
// and torus, fft traffic) with one infected link, a point, mitigated or
// not, leaves a SecureWire on exactly that link; every other link keeps
// the network's perfectWire, and no other wire is built. A clean point
// after it installs none, and the arena keeps the wire it built.
func TestSecureWiresOnlyWhereAFaultCanStrike(t *testing.T) {
	for _, topo := range []string{"mesh", "torus"} {
		for _, m := range []Mitigation{NoMitigation, S2SLOb} {
			cfg := DefaultExperiment()
			cfg.Noc.Topo, cfg.Noc.Width, cfg.Noc.Height = topo, 8, 8
			cfg.Benchmark, cfg.Mitigation = "fft", m
			cfg.Attack.NumLinks = 1
			cfg.Warmup, cfg.Measure = 200, 200
			r := NewRunner()
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.InfectedLinks) != 1 {
				t.Fatalf("%s %s: %d infected links, want 1", topo, m, len(res.InfectedLinks))
			}
			if res.HTInjections == 0 {
				t.Fatalf("%s %s: the trojan never struck", topo, m)
			}
			infected := res.InfectedLinks[0]
			a := r.arenas[cfg.Noc]
			for id := range a.wires {
				if on := a.wires[id] != nil; on != (id == infected) {
					t.Errorf("%s %s: link %d carries a SecureWire: %v, infected link %d", topo, m, id, on, infected)
				}
				if on := a.built[id] != nil; on != (id == infected) {
					t.Errorf("%s %s: link %d has a built SecureWire: %v, infected link %d", topo, m, id, on, infected)
				}
			}
			clean := cfg
			clean.Attack.Enabled = false
			if err := r.RunInto(clean, res); err != nil {
				t.Fatal(err)
			}
			for id, w := range a.wires {
				if w != nil {
					t.Errorf("%s %s: the clean point left a SecureWire on link %d", topo, m, id)
				}
			}
			if a.built[infected] == nil {
				t.Errorf("%s %s: the arena dropped the wire it built", topo, m)
			}
		}
	}
}

// lobGroup runs, on a fresh Runner, a group of a clean member and an
// attacked s2s-lob member: the clean member checkpoints its warm-up and
// the s2s-lob member resumes it. It returns the Runner, the s2s-lob
// member's infected links and the cycles the group stepped.
func lobGroup(t *testing.T, base ExperimentConfig) (r *Runner, infected []int, stepped int) {
	t.Helper()
	clean := base
	clean.Attack.Enabled = false
	lob := base
	lob.Mitigation = S2SLOb
	r = NewRunner()
	r.audit = func(*noc.Network) error { stepped++; return nil }
	res := []*Results{{}, {}}
	if err := r.RunGroup([]ExperimentConfig{clean, lob}, func(i int) *Results { return res[i] }, nil); err != nil {
		t.Fatal(err)
	}
	r.audit = nil
	return r, res[1].InfectedLinks, stepped
}

// TestResumedLObGroupWiresOnlyInfectedLinks: an s2s-lob member resumes a
// clean member's warm-up with no wire state from it, so the group builds a
// SecureWire only on the links the s2s-lob member infects. The flows its
// wires read ride on the flits, in the network's checkpoint.
func TestResumedLObGroupWiresOnlyInfectedLinks(t *testing.T) {
	base := DefaultExperiment()
	base.Warmup, base.Measure = 400, 200
	r, infected, stepped := lobGroup(t, base)
	if want := 600 + 201; stepped != want {
		t.Fatalf("the group stepped %d cycles, want %d: the s2s-lob member did not resume", stepped, want)
	}
	if len(infected) == 0 {
		t.Fatal("the s2s-lob member infected no link")
	}
	for id, w := range r.arenas[base.Noc].built {
		if on := w != nil; on != slices.Contains(infected, id) {
			t.Errorf("link %d has a built SecureWire: %v, infected links %v", id, on, infected)
		}
	}
}

// TestBuiltWiresLeaveNoStateBehind: the wires an arena builds stay with
// it. Later points on the same Runner that install fewer of them, others,
// or none, get exactly their results on a fresh Runner: a built wire a
// point does not install adds nothing to them.
func TestBuiltWiresLeaveNoStateBehind(t *testing.T) {
	base := DefaultExperiment()
	base.Warmup, base.Measure = 400, 200
	r, _, _ := lobGroup(t, base)
	clean := base
	clean.Attack.Enabled = false
	lob := base
	lob.Mitigation = S2SLOb
	other := lob
	other.Attack.Target = tasp.ForDest(9)
	located := lob
	located.Locate = true
	cleanLob := clean
	cleanLob.Mitigation = S2SLOb
	res := &Results{}
	for _, cfg := range []ExperimentConfig{other, base, located, cleanLob, clean} {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunInto(cfg, res); err != nil {
			t.Fatal(err)
		}
		if got, want := summarize(res), summarize(want); got != want {
			t.Errorf("%s target %+v locate=%v after a resumed s2s-lob group:\n%s\nfresh Runner:\n%s",
				cfg.Mitigation, cfg.Attack.Target, cfg.Locate, got, want)
		}
	}
}
