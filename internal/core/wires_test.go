package core

import (
	"testing"

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

// TestLatchedGroupLeavesNoWireStateBehind: a latched warm-up wires every
// link of its platform, and the wires stay with the arena. Later points on
// the same Runner that install fewer of them, or none, get exactly their
// results on a fresh Runner: a built wire a point does not install adds
// nothing to them.
func TestLatchedGroupLeavesNoWireStateBehind(t *testing.T) {
	base := DefaultExperiment()
	base.Warmup, base.Measure = 400, 200
	clean := base
	clean.Attack.Enabled = false
	lob := base
	lob.Mitigation = S2SLOb
	r := NewRunner()
	res := &Results{}
	// The clean member latches its warm-up for the s2s-lob member.
	if err := r.RunGroup([]ExperimentConfig{clean, lob}, func(int) *Results { return res }, nil); err != nil {
		t.Fatal(err)
	}
	for id, w := range r.arenas[base.Noc].built {
		if w == nil {
			t.Fatalf("link %d: the latched warm-up built no wire", id)
		}
	}
	other := lob
	other.Attack.Target = tasp.ForDest(9)
	located := lob
	located.Locate = true
	cleanLob := clean
	cleanLob.Mitigation = S2SLOb
	for _, cfg := range []ExperimentConfig{other, base, located, cleanLob, clean} {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunInto(cfg, res); err != nil {
			t.Fatal(err)
		}
		if got, want := summarize(res), summarize(want); got != want {
			t.Errorf("%s target %+v locate=%v after a latched group:\n%s\nfresh Runner:\n%s",
				cfg.Mitigation, cfg.Attack.Target, cfg.Locate, got, want)
		}
	}
}
