package power

import (
	"math"
	"slices"
	"testing"
)

// within reports whether got is within tol (fractional) of want.
func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

func TestBlockAccounting(t *testing.T) {
	b := NewBlock("x", 0.5)
	b.Add(INV, 10)
	sub := NewBlock("y", 1.0)
	sub.Add(DFF, 2)
	b.AddSub(sub)

	wantArea := 10*Default40nm[INV].Area + 2*Default40nm[DFF].Area
	if !within(b.Area(), wantArea, 1e-9) {
		t.Fatalf("area %g want %g", b.Area(), wantArea)
	}
	wantLeak := 10*Default40nm[INV].Leakage + 2*Default40nm[DFF].Leakage
	if !within(b.Leakage(), wantLeak, 1e-9) {
		t.Fatalf("leakage %g want %g", b.Leakage(), wantLeak)
	}
	wantDyn := 10*Default40nm[INV].ToggleFJ*0.5*2 + 2*Default40nm[DFF].ToggleFJ*1.0*2
	if !within(b.Dynamic(2), wantDyn, 1e-9) {
		t.Fatalf("dynamic %g want %g", b.Dynamic(2), wantDyn)
	}
	if b.Sub("y") != sub || b.Sub("z") != nil {
		t.Fatal("Sub lookup broken")
	}
	if b.TotalCells() != 12 {
		t.Fatalf("TotalCells = %d", b.TotalCells())
	}
}

func TestBlockAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewBlock("x", 0).Add(INV, -1)
}

// TestBreakdownSumsToOne: Figure 8's pies (exp.RunFigure8) divide a
// router's totals among its sub-blocks, so they sum to one only if each
// metric of a block is its own cells' plus its sub-blocks'.
func TestBreakdownSumsToOne(t *testing.T) {
	r := BuildRouter(DefaultRouterParams())
	self := *r
	self.Subs = nil
	for _, m := range []struct {
		name string
		of   func(*Block) float64
	}{
		{"area", (*Block).Area},
		{"leakage", (*Block).Leakage},
		{"dynamic", func(b *Block) float64 { return b.Dynamic(DefaultFreqGHz) }},
	} {
		sum := m.of(&self)
		for _, s := range r.Subs {
			sum += m.of(s)
		}
		if total := m.of(r); !within(sum/total, 1.0, 1e-9) {
			t.Fatalf("%s: self plus sub-blocks %g, total %g", m.name, sum, total)
		}
	}
}

func TestCriticalPathIsMaxOverHierarchy(t *testing.T) {
	b := NewBlock("top", 0)
	b.DepthPS = 100
	s := NewBlock("s", 0)
	s.DepthPS = 300
	b.AddSub(s)
	if b.CriticalPathPS() != 300 {
		t.Fatalf("critical path %g", b.CriticalPathPS())
	}
}

// TestTASPVariantOrdering checks the relative claims of Table I / Figure 9:
// area grows with comparator width, Full is the most expensive in every
// metric, and all variants meet 2 GHz timing with margin (0.21 ns < 0.5 ns).
func TestTASPVariantOrdering(t *testing.T) {
	area := map[TASPVariant]float64{}
	dyn := map[TASPVariant]float64{}
	for _, v := range TASPVariants {
		b := BuildTASP(v)
		area[v] = b.Area()
		dyn[v] = b.Dynamic(DefaultFreqGHz)
		if b.CriticalPathPS() > 1000/DefaultFreqGHz {
			t.Errorf("%s misses 2 GHz timing: %.0f ps", v, b.CriticalPathPS())
		}
		if b.CriticalPathPS() > 300 {
			t.Errorf("%s critical path %.0f ps, paper reports 210 ps", v, b.CriticalPathPS())
		}
	}
	if !(area[TASPVC] < area[TASPDest] && area[TASPDest] < area[TASPDestSrc] &&
		area[TASPDestSrc] < area[TASPMem] && area[TASPMem] < area[TASPFull]) {
		t.Errorf("area ordering violated: %v", area)
	}
	if area[TASPDest] != area[TASPSrc] {
		t.Errorf("Dest and Src must cost the same: %g vs %g", area[TASPDest], area[TASPSrc])
	}
	for _, v := range TASPVariants {
		if v != TASPFull && dyn[v] >= dyn[TASPFull] {
			t.Errorf("Full must dominate dynamic power: %s=%g full=%g", v, dyn[v], dyn[TASPFull])
		}
	}
}

// TestTableICalibration checks that the model lands near the paper's
// absolute Table I numbers (tolerances are generous: we substitute a
// synthetic cell library for TSMC's).
func TestTableICalibration(t *testing.T) {
	want := map[TASPVariant]struct{ area, dyn, leak float64 }{
		TASPFull:    {50.45, 25.5304, 30.2694},
		TASPDest:    {33.516, 9.9263, 16.2355},
		TASPSrc:     {33.516, 9.9263, 16.2355},
		TASPDestSrc: {37.044, 10.9416, 16.2498},
		TASPMem:     {44.4528, 10.1997, 17.0468},
		TASPVC:      {31.9284, 10.5953, 15.0765},
	}
	for v, w := range want {
		b := BuildTASP(v)
		if !within(b.Area(), w.area, 0.25) {
			t.Errorf("%s area %.2f um^2, paper %.2f (>25%% off)", v, b.Area(), w.area)
		}
		if !within(b.Dynamic(DefaultFreqGHz), w.dyn, 0.40) {
			t.Errorf("%s dynamic %.2f uW, paper %.2f (>40%% off)", v, b.Dynamic(DefaultFreqGHz), w.dyn)
		}
		if !within(b.Leakage(), w.leak, 0.40) {
			t.Errorf("%s leakage %.2f nW, paper %.2f (>40%% off)", v, b.Leakage(), w.leak)
		}
	}
}

// TestTASPIsTinyRelativeToRouter checks the paper's headline hardware claim:
// a TASP trojan is below 1% of the router in area and power.
func TestTASPIsTinyRelativeToRouter(t *testing.T) {
	r := BuildRouter(DefaultRouterParams())
	h := BuildTASP(TASPFull)
	if ratio := h.Area() / r.Area(); ratio >= 0.01 {
		t.Errorf("TASP/router area ratio %.4f, want < 0.01", ratio)
	}
	if ratio := h.Dynamic(DefaultFreqGHz) / r.Dynamic(DefaultFreqGHz); ratio >= 0.01 {
		t.Errorf("TASP/router dynamic ratio %.4f, want < 0.01", ratio)
	}
}

// TestMitigationOverhead checks Table II's claim: the threat detector plus
// L-Ob add about 2% area and about 6% power to the router.
func TestMitigationOverhead(t *testing.T) {
	base := BuildRouter(DefaultRouterParams())
	p := DefaultRouterParams()
	p.WithMitigation = true
	sec := BuildRouter(p)

	areaOv := sec.Area()/base.Area() - 1
	dynOv := sec.Dynamic(DefaultFreqGHz)/base.Dynamic(DefaultFreqGHz) - 1
	if areaOv <= 0.005 || areaOv > 0.045 {
		t.Errorf("mitigation area overhead %.1f%%, paper reports ~2%%", areaOv*100)
	}
	if dynOv <= 0.02 || dynOv > 0.12 {
		t.Errorf("mitigation power overhead %.1f%%, paper reports ~6%%", dynOv*100)
	}
	det := sec.Sub("threat-detector")
	lob := sec.Sub("l-ob")
	if det == nil || lob == nil {
		t.Fatal("mitigation blocks missing from secured router")
	}
	if period := 1000 / DefaultFreqGHz; det.CriticalPathPS() > period || lob.CriticalPathPS() > period {
		t.Error("mitigation blocks miss 2 GHz timing")
	}
}

// TestRouterDynamicBreakdown checks Figure 8's left pie: buffers dominate
// dynamic power (paper: 71%), crossbar second (18%), allocator and clock
// small, single TASP ~1%.
func TestRouterDynamicBreakdown(t *testing.T) {
	r := BuildRouter(DefaultRouterParams())
	bd, lb := map[string]float64{}, map[string]float64{}
	for _, s := range r.Subs {
		bd[s.Name] += s.Dynamic(DefaultFreqGHz) / r.Dynamic(DefaultFreqGHz)
		lb[s.Name] += s.Leakage() / r.Leakage()
	}
	if bd["buffer"] < 0.55 || bd["buffer"] > 0.85 {
		t.Errorf("buffer dynamic share %.2f, paper 0.71", bd["buffer"])
	}
	if bd["crossbar"] < 0.08 || bd["crossbar"] > 0.30 {
		t.Errorf("crossbar dynamic share %.2f, paper 0.18", bd["crossbar"])
	}
	if bd["switch-allocator"] > 0.12 {
		t.Errorf("allocator dynamic share %.2f, paper 0.04", bd["switch-allocator"])
	}
	if bd["clock"] > 0.15 {
		t.Errorf("clock dynamic share %.2f, paper 0.06", bd["clock"])
	}

	if lb["buffer"] < 0.70 {
		t.Errorf("buffer leakage share %.2f, paper 0.88", lb["buffer"])
	}
}

// TestNoCLevelShares checks Figure 8's right pies: global wires dominate NoC
// area; all 48 TASPs together are a sub-1% sliver of NoC dynamic power.
func TestNoCLevelShares(t *testing.T) {
	m := BuildNoC(DefaultNoCParams(), DefaultFreqGHz)
	totalArea := m.WireArea + m.ActiveArea + m.AllTASPArea
	wireShare := m.WireArea / totalArea
	activeShare := m.ActiveArea / totalArea
	taspShare := m.AllTASPArea / totalArea
	if wireShare < 0.70 || wireShare > 0.95 {
		t.Errorf("wire area share %.2f, paper 0.86", wireShare)
	}
	if activeShare < 0.05 || activeShare > 0.25 {
		t.Errorf("active area share %.2f, paper 0.13", activeShare)
	}
	if taspShare > 0.02 {
		t.Errorf("all-links TASP area share %.3f, paper <=0.01", taspShare)
	}
	dynShare := m.AllTASPDynUW / m.NoCDynUW
	if dynShare > 0.012 {
		t.Errorf("all-links TASP dynamic share %.4f, paper 0.0056", dynShare)
	}
}

// TestCalibrationReport prints the full hardware report with -v so the
// calibration numbers that feed EXPERIMENTS.md are visible in test logs.
func TestCalibrationReport(t *testing.T) {
	for _, v := range TASPVariants {
		b := BuildTASP(v)
		t.Logf("%-8s area=%7.2f um^2  dyn=%7.3f uW  leak=%7.3f nW  path=%4.0f ps",
			v, b.Area(), b.Dynamic(DefaultFreqGHz), b.Leakage(), b.CriticalPathPS())
	}
	r := BuildRouter(DefaultRouterParams())
	t.Logf("\n%s", r.Report(DefaultFreqGHz))
	p := DefaultRouterParams()
	p.WithMitigation = true
	s := BuildRouter(p)
	t.Logf("mitigation overhead: area +%.2f%%  dynamic +%.2f%%",
		(s.Area()/r.Area()-1)*100, (s.Dynamic(DefaultFreqGHz)/r.Dynamic(DefaultFreqGHz)-1)*100)
	m := BuildNoC(DefaultNoCParams(), DefaultFreqGHz)
	tot := m.WireArea + m.ActiveArea + m.AllTASPArea
	t.Logf("NoC area: wire %.1f%% active %.1f%% tasp(all48) %.2f%%",
		m.WireArea/tot*100, m.ActiveArea/tot*100, m.AllTASPArea/tot*100)
	t.Logf("NoC dynamic: routers %.2f%% tasp(all48) %.2f%%",
		(1-m.AllTASPDynUW/m.NoCDynUW)*100, m.AllTASPDynUW/m.NoCDynUW*100)
}

// TestTotalsAreBitIdenticalAcrossBuilds builds every block the experiments
// report (both routers, each TASP variant, the threat detector, L-Ob and
// the NoC model) many times and requires the same float64 bits from every
// build. Float addition is not associative, so a total summed in map order
// varies in its last bits from run to run.
func TestTotalsAreBitIdenticalAcrossBuilds(t *testing.T) {
	const builds = 200
	mitigated := DefaultRouterParams()
	mitigated.WithMitigation = true
	type block struct {
		name  string
		build func() *Block
	}
	blocks := []block{
		{"router", func() *Block { return BuildRouter(DefaultRouterParams()) }},
		{"mitigated router", func() *Block { return BuildRouter(mitigated) }},
		{"threat detector", BuildThreatDetector},
		{"l-ob", BuildLOb},
	}
	for _, v := range TASPVariants {
		blocks = append(blocks, block{"TASP " + string(v), func() *Block { return BuildTASP(v) }})
	}
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	totals := func(b *Block) []uint64 { return bits(b.Area(), b.Leakage(), b.Dynamic(DefaultFreqGHz)) }
	for _, c := range blocks {
		want := totals(c.build())
		for i := 1; i < builds; i++ {
			if got := totals(c.build()); !slices.Equal(got, want) {
				t.Fatalf("%s build %d: area, leakage, dynamic bits %x, first build %x", c.name, i, got, want)
			}
		}
	}
	model := func() []uint64 {
		m := BuildNoC(DefaultNoCParams(), DefaultFreqGHz)
		return bits(m.RouterArea, m.ActiveArea, m.WireArea, m.TASPArea, m.AllTASPArea,
			m.RouterDynUW, m.TASPDynUW, m.AllTASPDynUW, m.NoCDynUW)
	}
	want := model()
	for i := 1; i < builds; i++ {
		if got := model(); !slices.Equal(got, want) {
			t.Fatalf("NoC model build %d: bits %x, first build %x", i, got, want)
		}
	}
}
