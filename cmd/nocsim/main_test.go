package main

import (
	"strings"
	"testing"

	"tasp"
)

// TestConfigureRejectsBadFlags: nocsim's flags go through the campaign
// scenario parser and ExperimentConfig.Validate, so a bad id fails before
// the run with the field and its range instead of wrapping to another
// router, and only the canonical spec names are accepted.
func TestConfigureRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dest", "256"}, "attack.dest = 256 does not fit a header id (0..255)"},
		{[]string{"-dest", "20"}, "Attack.Target.DstR = 20 out of range 0..15"},
		{[]string{"-target", "dest-src", "-src", "-1"}, "attack.src = -1 does not fit a header id (0..255)"},
		{[]string{"-target", "vc", "-vc", "2", "-vcs", "2"}, "Attack.Target.VC = 2 out of range 0..1"},
		{[]string{"-attack-mode", "misroute", "-hijack", "99"}, "Attack.Hijack = 99 out of range: -1 (auto) or 0..15"},
		{[]string{"-mitigation", "e2e"}, `unknown mitigation "e2e"`},
		{[]string{"-target", "destsrc"}, `unknown attack kind "destsrc"`},
		{[]string{"-ber", "2"}, "TransientBER = 2 out of range [0, 1]"},
		{[]string{"-ber", "-0.1"}, "TransientBER = -0.1 out of range [0, 1]"},
		{[]string{"-warmup", "-5"}, "warmup = -5: must be positive, or 0 for the default"},
		{[]string{"-cycles", "-10"}, "measure = -10: must be positive, or 0 for the default"},
		{[]string{"-width", "-4"}, "width = -4: must be positive, or 0 for the default"},
		{[]string{"-height", "-4"}, "height = -4: must be positive, or 0 for the default"},
		{[]string{"-bench", "nope"}, `Benchmark = "nope" unknown (have [`},
		{[]string{"-links", "-4"}, "num_links = -4: must be positive, or 0 for the default"},
		{[]string{"-sample", "-3"}, "SampleEvery = -3 out of range: must be >= 0"},
	} {
		_, _, err := configure(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("configure(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestConfigureCanonicalNames: the mitigation and target names are the ones
// campaign specs and records use, and the platform flags specs do not carry
// still apply.
func TestConfigureCanonicalNames(t *testing.T) {
	cfg, heat, err := configure([]string{
		"-mitigation", "e2e-obfuscation", "-target", "dest-src", "-src", "5", "-dest", "2",
		"-conc", "2", "-vcs", "2", "-sample", "50", "-recover", "-map",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mitigation != tasp.E2EObfuscation || cfg.Attack.Target != tasp.ForDestSrc(5, 2) {
		t.Errorf("mitigation %v target %+v", cfg.Mitigation, cfg.Attack.Target)
	}
	if cfg.Noc.Concentration != 2 || cfg.Noc.VCs != 2 || cfg.SampleEvery != 50 || !heat {
		t.Errorf("platform flags not applied: %+v sample %d map %v", cfg.Noc, cfg.SampleEvery, heat)
	}
	if !cfg.SecureAck || !cfg.RecoverOnConvict {
		t.Error("-recover must imply -secure-ack")
	}
	for _, m := range []string{"none", "s2s-lob", "e2e-obfuscation", "tdm-qos", "rerouting"} {
		if _, _, err := configure([]string{"-mitigation", m}); err != nil {
			t.Errorf("-mitigation %s: %v", m, err)
		}
	}
}
