package exp

import (
	"fmt"

	"tasp/internal/flit"
	"tasp/internal/logictest"
	"tasp/internal/power"
	"tasp/internal/sidechannel"
	"tasp/internal/tasp"
)

// DetectabilityStudy quantifies the paper's threat analysis (Sections II,
// III-A, V-A): for each TASP variant, can post-fabrication verification
// find it? Logic testing excites narrow triggers but not wide ones — and
// nothing at all while the kill switch is off; power side-channel analysis
// needs the trojan to stand out of the process-variation floor, which a
// sub-1% TASP never does. Runtime detection (the paper's threat detector)
// is therefore the only layer that catches it — the motivation for the
// whole mitigation design.
func DetectabilityStudy(seed uint64) Table {
	t := Table{
		Title: "Detectability study: post-fabrication verification vs TASP variants",
		Columns: []string{"variant", "width",
			"logic-test Pr(trigger), killsw off", "killsw on (100k vectors)",
			"side-channel detect rate", "runtime detector"},
		Notes: []string{
			"side-channel campaign: 7% process variation, 1% noise, 20 golden chips, 3-sigma alarm, leakage of one router vs router+trojan",
			"logic testing can excite only narrow triggers, and only if the kill switch is up; the variation floor hides every variant from power analysis — runtime detection is the remaining layer (Section V-A)",
		},
	}
	router := power.BuildRouter(power.DefaultRouterParams())
	sc := sidechannel.Default40nm()

	targets := map[power.TASPVariant]tasp.Target{
		power.TASPFull:    tasp.ForFull(3, 9, 1, 0xdead0000, 0xffffffff),
		power.TASPDest:    tasp.ForDest(9),
		power.TASPSrc:     tasp.ForSrc(3),
		power.TASPDestSrc: tasp.ForDestSrc(3, 9),
		power.TASPMem:     tasp.ForMem(0xdead0000, 0xffffffff),
		power.TASPVC:      tasp.ForVC(1),
	}
	rows := make([][]string, len(power.TASPVariants))
	// The points cannot fail, so fanOut's error is always nil.
	_ = fanOut(DefaultWorkers(), len(rows), func(_, i int) error {
		v := power.TASPVariants[i]
		// Logic testing, kill switch down.
		dormant := tasp.New(targets[v], tasp.DefaultPayloadBits, flit.Default)
		off := logictest.Campaign{Vectors: 100000}.Run(dormant, seed)

		// Logic testing, kill switch up.
		armed := tasp.New(targets[v], tasp.DefaultPayloadBits, flit.Default)
		armed.SetKillSwitch(true)
		on := logictest.Campaign{Vectors: 100000}.Run(armed, seed+1)
		onCell := "never"
		if on.Detected() {
			onCell = fmt.Sprintf("Pr=%.4f first@%d", on.TriggerPr, on.FirstAt)
		}

		// Side channel: leakage of one trojan against one router.
		htLeak := power.BuildTASP(v).Leakage()
		r := sc.Run(router.Leakage(), htLeak, 1000, seed+2)

		rows[i] = []string{
			string(v), fmt.Sprintf("%d", v.Width()),
			fmt.Sprintf("%.4f", off.TriggerPr), onCell,
			fmt.Sprintf("%.3f (fp %.3f)", r.DetectionRate, r.FalsePositiveRate),
			"classified 'trojan' (Figure 12(b))",
		}
		return nil
	})
	t.Rows = rows
	return t
}
