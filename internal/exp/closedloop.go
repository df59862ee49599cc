package exp

import (
	"fmt"

	"tasp/internal/core"
	"tasp/internal/flit"
	"tasp/internal/noc"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// ClosedLoopStudy quantifies the paper's introduction claim that "any
// disruptions to [the] NoC has the potential to reverberate throughout the
// entire chip": under request-reply traffic with finite per-core request
// windows (MSHRs), killing the primary router's ingress stalls requesters
// chip-wide — cores that never touch a compromised link stop making
// progress because their windows fill with unanswered requests. The s2s
// L-Ob mitigation restores end-to-end transaction flow.
func ClosedLoopStudy(seed uint64) (Table, error) {
	t := Table{
		Title:   "Extension: closed-loop (request-reply, 4 MSHRs/core) impact of the Figure 11 attack",
		Columns: []string{"configuration", "transactions/cycle", "outstanding at end", "window stalls"},
		Notes: []string{
			"open-loop traffic understates a DoS attack: with request windows, unanswered requests to the victim stall cores everywhere — the chip-wide reverberation the paper's introduction describes",
		},
	}
	cases := []struct {
		name   string
		attack bool
		lob    bool
	}{
		{"healthy", false, false},
		{"attacked, no mitigation", true, false},
		{"attacked, s2s l-ob", true, true},
	}
	rows := make([][]string, len(cases))
	err := fanOut(DefaultWorkers(), len(cases), func(_, i int) error {
		row, err := runClosedLoopCase(seed, cases[i].attack, cases[i].lob)
		rows[i] = append([]string{cases[i].name}, row...)
		return err
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

func runClosedLoopCase(seed uint64, attack, lob bool) ([]string, error) {
	ncfg := noc.DefaultConfig()
	net, err := noc.New(ncfg)
	if err != nil {
		return nil, err
	}
	model, err := traffic.Benchmark("blackscholes", ncfg)
	if err != nil {
		return nil, err
	}
	const (
		warmup  = 1500
		measure = 1500
	)
	var trojans []*tasp.HT
	if attack {
		target := tasp.ForDest(0)
		infected := core.ChooseInfectedLinks(model, ncfg, net.LinkSlice(), 2, target)
		for _, id := range infected {
			ht := tasp.New(target, tasp.DefaultPayloadBits, net.Layout())
			trojans = append(trojans, ht)
			w := core.NewSecureWire(ht, seed^uint64(id), net.Layout())
			w.Mitigated = lob
			net.SetWire(id, w)
		}
	}

	cl := traffic.NewClosedLoop(model, seed, 4)
	net.SetDelivered(cl.OnDeliver)

	var atEnable uint64
	for c := 0; c < warmup+measure; c++ {
		if net.Cycle()+1 == warmup {
			for _, ht := range trojans {
				ht.SetKillSwitch(true)
			}
		}
		cl.Tick(func(coreID int, p *flit.Packet) bool { return net.Inject(coreID, p) })
		net.Step()
		if net.Cycle() == warmup {
			atEnable = cl.Completed
		}
	}
	tput := float64(cl.Completed-atEnable) / measure
	return []string{
		f3(tput),
		fmt.Sprintf("%d", cl.Pending()),
		fmt.Sprintf("%d", cl.Stalled),
	}, nil
}

// SaturationCurve is the classic NoC validation experiment: offered uniform
// load versus average packet latency, showing the flat region and the
// saturation knee. It validates the simulator's congestion behaviour and
// locates the operating points the DoS experiments run at.
func SaturationCurve() (Table, error) {
	t := Table{
		Title:   "Validation: latency vs offered load (uniform random traffic, XY routing)",
		Columns: []string{"rate (pkt/core/cycle)", "delivered/cycle", "avg latency", "p99 bound"},
		Notes: []string{
			"the knee marks saturation (~0.06 under uniform load); the benchmark models run in their flat region — Figure 11(b)'s stable baseline — so attack-induced congestion is attributable to the trojan, not the workload",
		},
	}
	ncfg := noc.DefaultConfig()
	rates := []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.12, 0.20}
	rows := make([][]string, len(rates))
	err := fanOut(DefaultWorkers(), len(rates), func(_, i int) error {
		rate := rates[i]
		m := traffic.Uniform(ncfg, rate)
		net, err := noc.New(ncfg)
		if err != nil {
			return err
		}
		gen := m.Generator(7)
		var scratch flit.Packet
		const cycles = 4000
		for c := 0; c < cycles; c++ {
			gen.TickInto(&scratch, func(coreID int, p *flit.Packet) bool { return net.Inject(coreID, p) })
			net.Step()
		}
		cnt := net.Counters
		// p99 via a second pass is overkill; reuse max as the tail proxy
		// alongside the mean.
		rows[i] = []string{
			fmt.Sprintf("%.3f", rate),
			f3(float64(cnt.DeliveredPackets) / cycles),
			f1(cnt.AvgLatency()),
			fmt.Sprintf("max=%d", cnt.MaxLatency),
		}
		return nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}
