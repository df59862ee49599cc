package sidechannel

import (
	"testing"

	"tasp/internal/power"
)

func TestCleanChipFalsePositiveRateLow(t *testing.T) {
	a := Default40nm()
	r := a.Run(5000, 0, 2000, 1)
	// 3-sigma one-sided threshold: ~0.1-1% false positives expected
	// (calibration sigma is itself noisy with 20 goldens).
	if r.FalsePositiveRate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", r.FalsePositiveRate)
	}
	if r.DetectionRate > 0.05 {
		t.Fatalf("zero-overhead 'trojan' detected at %.3f", r.DetectionRate)
	}
}

func TestHugeTrojanAlwaysDetected(t *testing.T) {
	a := Default40nm()
	// +100% leakage: far outside any process spread.
	r := a.Run(5000, 5000, 500, 2)
	if r.DetectionRate < 0.99 {
		t.Fatalf("2x leakage trojan detected only %.3f", r.DetectionRate)
	}
}

// TestTASPEvadesSideChannel reproduces the paper's Section V-A argument:
// a single TASP trojan's leakage is a sub-1% perturbation of a router,
// far below a 7% process-variation floor, so power-based side-channel
// analysis cannot find it.
func TestTASPEvadesSideChannel(t *testing.T) {
	router := power.BuildRouter(power.DefaultRouterParams())
	ht := power.BuildTASP(power.TASPFull)
	a := Default40nm()
	r := a.Run(router.Leakage(), ht.Leakage(), 2000, 3)
	if r.RelativeOverhead >= 0.01 {
		t.Fatalf("TASP leakage overhead %.4f should be <1%%", r.RelativeOverhead)
	}
	// Detection must be statistically indistinguishable from the false
	// positive rate.
	if r.DetectionRate > r.FalsePositiveRate+0.05 {
		t.Fatalf("TASP detected at %.3f vs false positives %.3f — it should hide in the variation floor",
			r.DetectionRate, r.FalsePositiveRate)
	}
}

func TestDetectionMonotoneInOverhead(t *testing.T) {
	a := Default40nm()
	prev := -1.0
	for _, ht := range []float64{0, 250, 1000, 2500, 5000} {
		r := a.Run(5000, ht, 1500, 4)
		if r.DetectionRate < prev-0.05 {
			t.Fatalf("detection rate not (weakly) monotone at ht=%g: %g after %g", ht, r.DetectionRate, prev)
		}
		prev = r.DetectionRate
	}
}

func TestLowerVariationCatchesMore(t *testing.T) {
	precise := Analysis{ProcessSigma: 0.005, NoiseSigma: 0.001, Goldens: 50, ThresholdSigma: 3}
	sloppy := Default40nm()
	ht := 100.0 // 2% of base
	rp := precise.Run(5000, ht, 2000, 5)
	rs := sloppy.Run(5000, ht, 2000, 5)
	if rp.DetectionRate <= rs.DetectionRate {
		t.Fatalf("precise campaign (%.3f) not better than sloppy (%.3f)", rp.DetectionRate, rs.DetectionRate)
	}
	if rp.DetectionRate < 0.5 {
		t.Fatalf("a 2%% trojan should be visible at 0.5%% variation: %.3f", rp.DetectionRate)
	}
}
