package power

// DVFS support: the paper notes the TASP trojan "fits well within the
// 0.5 ns window, even for architectures with dynamic frequency scaling".
// These helpers evaluate any block across operating points using the
// standard first-order models: dynamic energy scales with V^2, leakage
// roughly linearly with V (sub-threshold, over the small ranges DVFS
// spans), and gate delay with V_nom/V (alpha-power approximation with the
// overdrive folded into calibration).

// OperatingPoint is one DVFS setting.
type OperatingPoint struct {
	Name    string
	FreqGHz float64
	Voltage float64
}

// DefaultOperatingPoints spans a typical 40 nm DVFS ladder around the
// paper's nominal 2 GHz / 1.0 V point.
//
//nocvet:keep TestTASPFitsAcrossDVFSLadder checks Section V-A's timing remark on this ladder
var DefaultOperatingPoints = []OperatingPoint{
	{Name: "turbo", FreqGHz: 2.5, Voltage: 1.10},
	{Name: "nominal", FreqGHz: 2.0, Voltage: 1.00},
	{Name: "efficient", FreqGHz: 1.5, Voltage: 0.90},
	{Name: "low", FreqGHz: 1.0, Voltage: 0.80},
}

// DynamicAt returns the block's switching power (uW) at an operating
// point: library energies are quoted at DefaultVoltage, scaled by (V/V0)^2
// and the point's clock.
//
//nocvet:keep ROADMAP item 9 prints the DVFS ladder in -exp all
func DynamicAt(b *Block, op OperatingPoint) float64 {
	r := op.Voltage / DefaultVoltage
	return b.Dynamic(op.FreqGHz) * r * r
}

// LeakageAt returns the block's static power (nW) at an operating point
// (linear voltage scaling over DVFS ranges).
//
//nocvet:keep ROADMAP item 9 prints the DVFS ladder in -exp all
func LeakageAt(b *Block, op OperatingPoint) float64 {
	return b.Leakage() * op.Voltage / DefaultVoltage
}

// CriticalPathAt returns the block's critical path (ps) at an operating
// point: delays are quoted at DefaultVoltage and stretch as V drops.
func CriticalPathAt(b *Block, op OperatingPoint) float64 {
	return b.CriticalPathPS() * DefaultVoltage / op.Voltage
}

// MeetsTimingAt reports whether the block closes timing at the operating
// point's own clock.
//
//nocvet:keep TestTASPFitsAcrossDVFSLadder checks Section V-A's timing remark with it
func MeetsTimingAt(b *Block, op OperatingPoint) bool {
	return CriticalPathAt(b, op) <= 1000.0/op.FreqGHz
}
