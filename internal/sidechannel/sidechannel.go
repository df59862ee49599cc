// Package sidechannel models post-fabrication hardware-trojan detection by
// side-channel analysis (paper Sections II and V-A, [16][17]): comparing a
// suspect chip's static power or path timing against a golden population.
// "The static power cost of a HT is important because when the HT is idle,
// it remains the only visible characteristic that is detectable."
//
// The model is the standard one from the HT-detection literature: each
// fabricated chip's leakage is the nominal design leakage scaled by a
// lognormal-ish process-variation factor plus measurement noise; the
// detector calibrates mean and deviation on golden (trojan-free) chips and
// flags suspects whose measurement exceeds a k-sigma threshold. A trojan is
// caught only when its added leakage stands out of the variation floor —
// which a sub-1% TASP does not.
package sidechannel

import (
	"math"

	"tasp/internal/xrand"
)

// Analysis configures one side-channel detection campaign.
type Analysis struct {
	// ProcessSigma is the relative per-chip process-variation sigma of the
	// measured quantity (5-10% is typical for leakage at 40 nm).
	ProcessSigma float64
	// NoiseSigma is the relative measurement-noise sigma per reading.
	NoiseSigma float64
	// Goldens is the number of trojan-free chips used for calibration.
	Goldens int
	// ThresholdSigma is the alarm threshold in calibrated deviations.
	ThresholdSigma float64
}

// Default40nm returns a realistic campaign: 7% process variation, 1%
// measurement noise, 20 golden chips, 3-sigma alarm.
func Default40nm() Analysis {
	return Analysis{ProcessSigma: 0.07, NoiseSigma: 0.01, Goldens: 20, ThresholdSigma: 3}
}

// gauss draws a standard normal via Box-Muller.
func gauss(rng *xrand.RNG) float64 {
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// measure simulates one chip reading: nominal * (1 + process) * (1 + noise).
func (a Analysis) measure(rng *xrand.RNG, nominal float64) float64 {
	p := 1 + a.ProcessSigma*gauss(rng)
	n := 1 + a.NoiseSigma*gauss(rng)
	if p < 0.5 {
		p = 0.5 // clamp pathological tails
	}
	return nominal * p * n
}

// Result summarises a campaign.
type Result struct {
	// DetectionRate is the fraction of infected chips flagged.
	DetectionRate float64
	// FalsePositiveRate is the fraction of clean chips flagged.
	FalsePositiveRate float64
	// RelativeOverhead is htQuantity / baseQuantity, for reporting.
	RelativeOverhead float64
}

// Run executes a Monte-Carlo campaign: base is the clean chip's nominal
// quantity (leakage in nW, or a path delay in ps), ht the trojan's
// addition. trials chips of each kind are measured against a golden
// calibration.
func (a Analysis) Run(base, ht float64, trials int, seed uint64) Result {
	rng := xrand.New(seed)
	// Calibrate on golden chips.
	var sum, sum2 float64
	for i := 0; i < a.Goldens; i++ {
		m := a.measure(rng, base)
		sum += m
		sum2 += m * m
	}
	mean := sum / float64(a.Goldens)
	vari := sum2/float64(a.Goldens) - mean*mean
	if vari < 1e-12 {
		vari = 1e-12
	}
	sigma := math.Sqrt(vari)
	limit := mean + a.ThresholdSigma*sigma

	detected, falsePos := 0, 0
	for i := 0; i < trials; i++ {
		if a.measure(rng, base+ht) > limit {
			detected++
		}
		if a.measure(rng, base) > limit {
			falsePos++
		}
	}
	return Result{
		DetectionRate:     float64(detected) / float64(trials),
		FalsePositiveRate: float64(falsePos) / float64(trials),
		RelativeOverhead:  ht / base,
	}
}
