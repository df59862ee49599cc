package core

import (
	"slices"
	"testing"

	"tasp/internal/tasp"
)

func runLocate(t *testing.T, topo string, seed uint64) *Results {
	t.Helper()
	cfg := DefaultExperiment()
	cfg.Seed = seed
	cfg.Noc.Topo = topo
	cfg.Locate = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", topo, seed, err)
	}
	if len(res.Suspects) == 0 {
		t.Fatalf("%s seed %d: locate produced no suspects", topo, seed)
	}
	return res
}

// TestLocateRankOneMesh is the localization layer's acceptance test: on the
// canonical mesh attack (Figure 11 protocol — blackscholes, TASP on the two
// hottest dest-0 links, 1500-cycle warm-up) the fused ranking must put an
// infected link at rank 1 for both pinned seeds, with a positive margin, and
// the per-sample verdict must settle inside the infected set (the last
// sample of the trace is an infected link).
func TestLocateRankOneMesh(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		res := runLocate(t, "mesh", seed)
		if !slices.Contains(res.InfectedLinks, res.Suspects[0].LinkID) {
			t.Fatalf("seed %d: rank-1 = link %d, want one of the infected %v (top: %+v)",
				seed, res.Suspects[0].LinkID, res.InfectedLinks, res.Suspects[:3])
		}
		if res.Suspects[0].Confidence <= 0 {
			t.Fatalf("seed %d: rank-1 confidence %f, want a positive margin",
				seed, res.Suspects[0].Confidence)
		}
		if n := len(res.SuspectTrace); n == 0 || !slices.Contains(res.InfectedLinks, res.SuspectTrace[n-1].LinkID) {
			t.Fatalf("seed %d: per-sample verdict never settled on an infected link", seed)
		}
	}
}

// TestLocateRankOneTorusRing pins the cross-substrate behaviour the locate
// preset reports: the fused ranking localizes the infected set on the torus
// and the ring too.
func TestLocateRankOneTorusRing(t *testing.T) {
	for _, topo := range []string{"torus", "ring"} {
		res := runLocate(t, topo, 1)
		if !slices.Contains(res.InfectedLinks, res.Suspects[0].LinkID) {
			t.Fatalf("%s: rank-1 = link %d, want one of the infected %v",
				topo, res.Suspects[0].LinkID, res.InfectedLinks)
		}
	}
}

// TestLocateTelemetryOnlyMesh pins the ablation column: on the mesh the
// detector-free ranking (blocked-port telemetry + structural priors alone)
// still finds an infected link at rank 1.
func TestLocateTelemetryOnlyMesh(t *testing.T) {
	res := runLocate(t, "mesh", 1)
	if !slices.Contains(res.InfectedLinks, res.SuspectsTelemetry[0].LinkID) {
		t.Fatalf("telemetry-only rank-1 = link %d, want one of the infected %v",
			res.SuspectsTelemetry[0].LinkID, res.InfectedLinks)
	}
}

// TestMonitorsAreObservationOnly pins the property that lets one campaign
// spec switch secure-ack, locate and recovery on for every arm of a study:
// on every topology at seed 1, a clean run with all three on gives the same
// counters, throughput and victim goodput as with all three off, and the
// throttle dropper against the stock streak-only detector (which never
// convicts it) gives the same counters with and without recovery.
func TestMonitorsAreObservationOnly(t *testing.T) {
	r := NewRunner()
	run := func(t *testing.T, cfg ExperimentConfig) *Results {
		t.Helper()
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, topo := range []string{"mesh", "torus", "ring"} {
		t.Run(topo, func(t *testing.T) {
			clean := DefaultExperiment()
			clean.Seed = 1
			clean.Noc.Topo = topo
			clean.Attack.Enabled = false
			off := run(t, clean)
			clean.SecureAck, clean.Locate, clean.RecoverOnConvict = true, true, true
			on := run(t, clean)
			if on.Final != off.Final || on.Throughput != off.Throughput || on.VictimDelivered != off.VictimDelivered {
				t.Errorf("clean run with the monitors on differs: tput %.3f vs %.3f, victim %d vs %d, counters\n%+v\n%+v",
					on.Throughput, off.Throughput, on.VictimDelivered, off.VictimDelivered, on.Final, off.Final)
			}

			stock := DefaultExperiment()
			stock.Seed = 1
			stock.Noc.Topo = topo
			stock.Attack.Kind = tasp.KindThrottle
			stock.SecureAck, stock.Locate = true, true
			stock.AckDeficitRatio = -1
			kept := run(t, stock)
			stock.RecoverOnConvict = true
			recovering := run(t, stock)
			if recovering.RecoveredAt != 0 {
				t.Errorf("the stock detector convicted the throttle dropper (recovery at cycle %d)", recovering.RecoveredAt)
			}
			if recovering.Final != kept.Final {
				t.Errorf("stock-detector throttle run differs with recovery on:\n%+v\n%+v", recovering.Final, kept.Final)
			}
		})
	}
}
