package exp

import (
	"fmt"

	"tasp/internal/core"
	"tasp/internal/flit"
	"tasp/internal/flood"
	"tasp/internal/lob"
	"tasp/internal/noc"
	"tasp/internal/power"
	"tasp/internal/routing"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// AblationRetransScheme compares the paper's two retransmission-buffer
// micro-architectures (Figure 5) under the Figure 11 attack: the shared
// post-crossbar buffer (the stated worst case) against per-VC buffers.
func AblationRetransScheme(seed uint64) (Table, error) {
	t := Table{
		Title:   "Ablation: retransmission buffer placement (Figure 5's two schemes) under a VC-targeted attack",
		Columns: []string{"scheme", "throughput", "blocked routers", ">50% cores full"},
		Notes: []string{
			"a VC-1 trojan wedges one VC's flits; in the shared output buffer those wedges consume everyone's slots (head-of-line blocking across VCs) while per-VC buffers contain the damage — the paper evaluates the shared case as the worst case",
		},
	}
	schemes := []struct {
		name  string
		perVC bool
	}{{"shared output buffer", false}, {"per-VC buffers", true}}
	cfgs := make([]core.ExperimentConfig, len(schemes))
	for i, scheme := range schemes {
		cfg := core.DefaultExperiment()
		cfg.Seed = seed
		cfg.Noc.RetransPerVC = scheme.perVC
		cfg.Attack.Target = tasp.ForVC(1)
		cfg.Attack.NumLinks = 4
		cfgs[i] = cfg
	}
	runs, err := newScenarios().runConfigs(cfgs)
	if err != nil {
		return t, err
	}
	for i, res := range runs {
		last := res.Samples[len(res.Samples)-1]
		R := cfgs[i].Noc.Routers()
		t.Rows = append(t.Rows, []string{
			schemes[i].name, f3(res.Throughput),
			fmt.Sprintf("%d/%d", last.BlockedRouters, R),
			fmt.Sprintf("%d/%d", last.HalfCoresFull, R),
		})
	}
	return t, nil
}

// AblationRoutingUnderFlood reproduces the paper's Section III-A remark
// that XY routing outperforms adaptive algorithms under flood-based DoS
// below saturation: a rogue-core flood targets the primary router while
// background traffic runs, per routing algorithm.
func AblationRoutingUnderFlood(seed uint64) (Table, error) {
	t := Table{
		Title:   "Ablation: routing algorithm vs flood-based DoS [12] (4 rogue cores flooding router 0)",
		Columns: []string{"algorithm", "tput clean", "tput flooded", "retained"},
		Notes: []string{
			"Section III-A: under flood DoS, XY outperforms adaptive algorithms below saturation — adaptivity spreads the flood's congestion tree",
		},
	}
	ncfg := noc.DefaultConfig()
	algs := []string{"xy", "west-first", "north-last", "negative-first", "odd-even"}
	table := routing.Algorithms(ncfg)
	// Point 2a is algorithm a clean, point 2a+1 the same under the flood.
	tput := make([]float64, 2*len(algs))
	err := fanOut(DefaultWorkers(), len(tput), func(_, i int) error {
		var err error
		tput[i], err = runFloodCase(ncfg, table[algs[i/2]], seed, i%2 == 1)
		return err
	})
	if err != nil {
		return t, err
	}
	for a, name := range algs {
		clean, flooded := tput[2*a], tput[2*a+1]
		t.Rows = append(t.Rows, []string{
			name, f3(clean), f3(flooded), pct(flooded / clean),
		})
	}
	return t, nil
}

// runFloodCase runs blackscholes background traffic with or without a
// 4-core flood at router 15 aimed at router 0, returning throughput of the
// background traffic (flood packets excluded).
func runFloodCase(ncfg noc.Config, alg noc.AdaptiveRouteFunc, seed uint64, withFlood bool) (float64, error) {
	n, err := noc.New(ncfg)
	if err != nil {
		return 0, err
	}
	n.SetAdaptiveRoute(alg)
	m, err := traffic.Benchmark("blackscholes", ncfg)
	if err != nil {
		return 0, err
	}
	gen := m.Generator(seed)
	var fl *flood.Attack
	var floodDelivered uint64
	if withFlood {
		fl = flood.New([]int{60, 61, 62, 63}, 0, 0.9, seed^0xf1)
		fl.BodyFlits = 4
		fl.EnableAt = 500
		n.SetDelivered(func(d noc.Delivery) {
			if d.Hdr.SrcR == 15 {
				floodDelivered++
			}
		})
	}
	var scratch flit.Packet
	const cycles = 3000
	for c := 0; c < cycles; c++ {
		gen.TickInto(&scratch, func(core int, p *flit.Packet) bool { return n.Inject(core, p) })
		if fl != nil {
			fl.Tick(n.Cycle(), ncfg.Routers(), func(core int, p *flit.Packet) bool { return n.Inject(core, p) })
		}
		n.Step()
	}
	return float64(n.Counters.DeliveredPackets-floodDelivered) / cycles, nil
}

// AblationPayloadCounter quantifies the attacker's Y-bit trade-off
// (Section III-B): camouflage (distinct two-wire fault masks before the
// pattern repeats) against flip-flop area that side-channel analysis can
// find.
func AblationPayloadCounter() Table {
	t := Table{
		Title:   "Ablation: TASP payload-counter width Y — camouflage vs silicon",
		Columns: []string{"Y bits", "payload states", "strikes before repeat", "counter area um^2", "counter leak nW"},
		Notes: []string{
			"more payload states disguise strikes as transients for longer; more flip-flops raise the idle leakage that side-channel detection keys on",
		},
	}
	for _, y := range []int{2, 4, 8, 12, 16} {
		ht := tasp.New(tasp.ForDest(1), y, flit.Default)
		ctr := power.Counter("payload", y, 0.1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", y),
			fmt.Sprintf("%d", ht.PayloadStates()),
			fmt.Sprintf("%d", ht.PayloadStates()), // one strike per state before wrap
			f2(ctr.Area()), f2(ctr.Leakage()),
		})
	}
	return t
}

// AblationDetectorHistory measures detection coverage versus the threat
// detector's fault-history capacity: with a tiny table, interleaved flows
// evict the repeat-fault evidence before it accumulates.
func AblationDetectorHistory(seed uint64) (Table, error) {
	t := Table{
		Title:   "Ablation: threat-detector history capacity (Figure 11 attack + transient noise, s2s L-Ob)",
		Columns: []string{"history entries", "detect latency (cycles)", "throughput", "trojans classified"},
		Notes: []string{
			"background transient faults interleave with trojan strikes; a small history table evicts the repeat-fault evidence before it accumulates, delaying classification",
		},
	}
	caps := []int{1, 2, 4, 16, 64}
	cfgs := make([]core.ExperimentConfig, len(caps))
	for i, cap := range caps {
		cfg := core.DefaultExperiment()
		cfg.Seed = seed
		cfg.Mitigation = core.S2SLOb
		cfg.DetectorHistory = cap
		cfg.TransientBER = 5e-4
		cfgs[i] = cfg
	}
	runs, err := newScenarios().runConfigs(cfgs)
	if err != nil {
		return t, err
	}
	for i, res := range runs {
		trojans := 0
		for _, cl := range res.Detections { //nocvet:orderfree commutative count
			if cl.String() == "trojan" {
				trojans++
			}
		}
		lat := "-"
		if res.FirstTrojanAt > 0 {
			lat = fmt.Sprintf("%d", res.FirstTrojanAt-uint64(cfgs[i].Warmup))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", caps[i]), lat, f3(res.Throughput),
			fmt.Sprintf("%d/%d", trojans, len(res.InfectedLinks)),
		})
	}
	return t, nil
}

// AblationEscalationOrder compares L-Ob method orders: the default
// scramble-first schedule against an invert-first one, measuring total
// obfuscation stall and residual retransmissions.
func AblationEscalationOrder(seed uint64) (Table, error) {
	t := Table{
		Title:   "Ablation: L-Ob escalation order (Figure 11 attack, s2s L-Ob)",
		Columns: []string{"order", "throughput", "obfuscated traversals", "stall cycles", "retransmissions"},
		Notes: []string{
			"scramble randomises every retry (robust, 2-cycle undo); invert is cheaper (1 cycle) but a fixed bijection a retuned trigger could learn",
		},
	}
	orders := []struct {
		name  string
		order []lob.Choice
	}{
		{"scramble-first (default)", nil},
		{"invert-first", []lob.Choice{
			{Method: lob.Invert, Gran: lob.WholeFlit},
			{Method: lob.Shuffle, Gran: lob.WholeFlit},
			{Method: lob.Reorder, Gran: lob.WholeFlit},
			{Method: lob.Scramble, Gran: lob.WholeFlit},
			{Method: lob.Invert, Gran: lob.HeaderOnly},
			{Method: lob.Invert, Gran: lob.PayloadOnly},
			{Method: lob.Scramble, Gran: lob.HeaderOnly},
			{Method: lob.Scramble, Gran: lob.PayloadOnly},
		}},
	}
	cfgs := make([]core.ExperimentConfig, len(orders))
	for i, o := range orders {
		cfg := core.DefaultExperiment()
		cfg.Seed = seed
		cfg.Mitigation = core.S2SLOb
		cfg.EscalationOrder = o.order
		cfgs[i] = cfg
	}
	runs, err := newScenarios().runConfigs(cfgs)
	if err != nil {
		return t, err
	}
	for i, res := range runs {
		t.Rows = append(t.Rows, []string{
			orders[i].name, f3(res.Throughput),
			fmt.Sprintf("%d", res.Obfuscated),
			fmt.Sprintf("%d", res.StallCycles),
			fmt.Sprintf("%d", res.Final.Retransmissions),
		})
	}
	return t, nil
}

// AblationPlacement compares the attacker's link-placement strategies from
// Section III-A: target-flow-hottest links (the paper's analysis), the
// globally hottest links, and deterministic "random" links.
func AblationPlacement(seed uint64) (Table, error) {
	t := Table{
		Title:   "Ablation: TASP link placement strategy (2 trojans, dest-0 target, no mitigation)",
		Columns: []string{"placement", "links", "strikes", "victim goodput", "blocked routers"},
		Notes: []string{
			"the attacker's objective is disruption of the victim application (goodput of packets still reaching router 0) with the fewest trojans; links the target flow never crosses strike nothing at all — placement is everything (Section III-A)",
		},
	}
	ncfg := noc.DefaultConfig()
	n, err := noc.New(ncfg)
	if err != nil {
		return t, err
	}
	m, err := traffic.Benchmark("blackscholes", ncfg)
	if err != nil {
		return t, err
	}
	hottestTarget := core.ChooseInfectedLinks(m, ncfg, n.LinkSlice(), 2, tasp.ForDest(0))
	hottestAny := core.ChooseInfectedLinks(m, ncfg, n.LinkSlice(), 2, tasp.ForVC(0)) // VC matcher = all flows
	arbitrary := []int{11, 29}                                                       // mid-mesh links some target flows cross
	cold := []int{12, 13}                                                            // 3<->7 edge links the dest-0 flow never crosses

	placements := []struct {
		name  string
		links []int
	}{
		{"target-flow hottest (paper)", hottestTarget},
		{"globally hottest", hottestAny},
		{"arbitrary mid-mesh", arbitrary},
		{"cold edge links", cold},
	}
	cfgs := make([]core.ExperimentConfig, len(placements))
	for i, pl := range placements {
		cfg := core.DefaultExperiment()
		cfg.Seed = seed
		cfg.Attack.Links = pl.links
		cfgs[i] = cfg
	}
	runs, err := newScenarios().runConfigs(cfgs)
	if err != nil {
		return t, err
	}
	for i, res := range runs {
		last := res.Samples[len(res.Samples)-1]
		t.Rows = append(t.Rows, []string{
			placements[i].name, fmt.Sprintf("%v", placements[i].links),
			fmt.Sprintf("%d", res.HTInjections),
			fmt.Sprintf("%d pkts", res.VictimDelivered),
			fmt.Sprintf("%d/%d", last.BlockedRouters, cfgs[i].Noc.Routers()),
		})
	}
	return t, nil
}
