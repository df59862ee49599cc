package tasp_test

import (
	"strings"
	"testing"

	"tasp"
)

// TestPublicAPIRoundTrip exercises the facade end to end the way the
// quickstart example does: healthy, attacked, mitigated.
func TestPublicAPIRoundTrip(t *testing.T) {
	clean := tasp.DefaultConfig()
	clean.Warmup, clean.Measure = 600, 600
	clean.Attack.Enabled = false
	base, err := tasp.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if base.Throughput <= 0 || base.Final.DeliveredPackets == 0 {
		t.Fatal("clean run produced nothing")
	}

	sec := tasp.DefaultConfig()
	sec.Warmup, sec.Measure = 600, 900
	sec.Mitigation = tasp.S2SLOb
	res, err := tasp.Run(sec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InfectedLinks) == 0 || res.HTInjections == 0 {
		t.Fatal("attack not deployed")
	}
	if len(res.Detections) == 0 {
		t.Fatal("trojans not detected through the public API")
	}
}

func TestPublicAPITargets(t *testing.T) {
	for name, target := range map[string]tasp.Target{
		"dest":    tasp.ForDest(3),
		"src":     tasp.ForSrc(1),
		"destsrc": tasp.ForDestSrc(1, 3),
		"vc":      tasp.ForVC(2),
		"vcrange": tasp.ForVCRange(2, 0b10),
		"mem":     tasp.ForMem(0x03000000, 0xff000000),
		"full":    tasp.ForFull(1, 3, 2, 0x03000000, 0xff000000),
	} {
		if k := target.Kind.String(); strings.HasPrefix(k, "TargetKind(") {
			t.Errorf("%s: unknown comparator kind %s", name, k)
		}
	}
}

func TestPublicAPIBenchmarks(t *testing.T) {
	bs := tasp.Benchmarks()
	if len(bs) < 10 {
		t.Fatalf("only %d benchmarks exposed", len(bs))
	}
}

func TestDefaultNoCConfigMatchesPaper(t *testing.T) {
	c := tasp.DefaultNoCConfig()
	if c.Routers() != 16 || c.Cores() != 64 || c.VCs != 4 || c.BufDepth != 4 {
		t.Fatalf("platform drifted from the paper: %+v", c)
	}
}
