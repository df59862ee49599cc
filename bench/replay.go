package main

import (
	"fmt"

	"tasp/internal/core"
	"tasp/internal/detect"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/locate"
	"tasp/internal/noc"
	"tasp/internal/reroute"
	"tasp/internal/stats"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// The replay re-runs one campaign point through the layers' public calls,
// in exactly core.Runner.RunInto's order, so that each call can be timed
// from here. It reproduces only what the workloads use and rejects any
// other knob: its counters and record must equal RunInto's, or the trace
// would describe a different program.

// core.ExperimentConfig's documented defaults for the two knobs the replay
// requires to be left unset.
const (
	sampleEvery  = 25  // SampleEvery 0: occupancy and monitor window period
	rerouteDelay = 200 // RerouteDetectDelay 0: rerouting baseline lag
)

// supported rejects a configuration the replay cannot reproduce.
func supported(cfg core.ExperimentConfig) error {
	switch {
	case cfg.Model != nil:
		return fmt.Errorf("replay: explicit traffic models are not supported")
	case cfg.Mitigation != core.NoMitigation && cfg.Mitigation != core.S2SLOb && cfg.Mitigation != core.Rerouting:
		return fmt.Errorf("replay: mitigation %s is not supported", cfg.Mitigation)
	case cfg.RecoverOnConvict:
		return fmt.Errorf("replay: conviction-driven recovery is not supported")
	case cfg.TransientBER != 0, cfg.DetectorHistory != 0, cfg.SampleEvery != 0,
		cfg.RerouteDetectDelay != 0, cfg.Attack.EnableAt != 0, len(cfg.PredisabledLinks) > 0:
		return fmt.Errorf("replay: transient faults, detector history, sampling, reroute delay, enable cycle and predisabled links must keep their defaults")
	}
	return nil
}

// perCycle accumulates, for the point being replayed, the per-cycle calls
// the replay aggregates into one span each, plus the point's counts.
type perCycle struct {
	wire, step, tick, inject timed
	counts
}

// counts are what the layers report besides time: wire outcomes, refused
// injections, simulated cycles, and the flits seen at occupancy samples.
type counts struct {
	nacks, swallows, obfuscated, refused int64
	cycles, samples, flitsSeen           int64
}

func (c *counts) add(o counts) {
	c.nacks += o.nacks
	c.swallows += o.swallows
	c.obfuscated += o.obfuscated
	c.refused += o.refused
	c.cycles += o.cycles
	c.samples += o.samples
	c.flitsSeen += o.flitsSeen
}

// timed is an aggregated call site: its call count and the host time
// inside the calls.
type timed struct{ calls, ns int64 }

func (t *timed) add(ns int64) { t.calls++; t.ns += ns }

// timedWire times every traversal of the secure wire it decorates.
type timedWire struct {
	w   *core.SecureWire
	acc *perCycle
}

// Transmit implements noc.Wire.
func (t *timedWire) Transmit(cycle uint64, f flit.Flit, vc uint8, attempt int) (flit.Flit, noc.TxResult) {
	start := nowNs()
	out, res := t.w.Transmit(cycle, f, vc, attempt)
	t.acc.wire.add(nowNs() - start)
	if !res.OK {
		t.acc.nacks++
	}
	if res.Swallowed {
		t.acc.swallows++
	}
	return out, res
}

type trojanKey struct {
	kind           tasp.Kind
	target         tasp.Target
	yBits, hijack  int
	period, active int
	n              int
}

// platform is the replay's reusable simulation state for one network
// configuration, built once and reset per point, like RunInto's arena.
type platform struct {
	net      *noc.Network
	wires    []*core.SecureWire
	timed    []*timedWire
	chains   []fault.Chain
	ackmon   *detect.AckMonitor
	gens     map[string]*traffic.Generator
	trojans  map[trojanKey][]tasp.Trojan
	disabled map[int]bool
	evidence map[int]locate.LinkEvidence
	scratch  flit.Packet
}

// replayer replays points and records their spans.
type replayer struct {
	tr        *tracer
	platforms map[noc.Config]*platform
	acc       perCycle // the current point's; the decorators write here
	total     counts
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, platforms: map[noc.Config]*platform{}}
}

// prepare builds what RunInto's arena memoizes across points (network,
// wires, monitor, traffic generator, trojans) for this point, under a
// core.platform span outside the point's own.
func (rp *replayer) prepare(index int, cfg core.ExperimentConfig, ref *core.Results) (*platform, *traffic.Generator, []tasp.Trojan, error) {
	s := rp.tr.begin("core.platform", index, -1)
	defer rp.tr.end(s)
	p := rp.platforms[cfg.Noc]
	if p == nil {
		net, err := noc.New(cfg.Noc)
		if err != nil {
			return nil, nil, nil, err
		}
		links := len(net.LinkSlice())
		p = &platform{
			net:      net,
			chains:   make([]fault.Chain, links),
			ackmon:   detect.NewAckMonitor(links),
			gens:     map[string]*traffic.Generator{},
			trojans:  map[trojanKey][]tasp.Trojan{},
			disabled: map[int]bool{},
			evidence: make(map[int]locate.LinkEvidence, links),
		}
		for i := 0; i < links; i++ {
			w := core.NewSecureWire(fault.None, 0, net.Layout())
			p.wires = append(p.wires, w)
			p.timed = append(p.timed, &timedWire{w: w, acc: &rp.acc})
		}
		rp.platforms[cfg.Noc] = p
	}
	gen := p.gens[cfg.Benchmark]
	if gen == nil {
		m, err := traffic.Benchmark(cfg.Benchmark, cfg.Noc)
		if err != nil {
			return nil, nil, nil, err
		}
		gen = m.Generator(cfg.Seed)
		p.gens[cfg.Benchmark] = gen
	}
	var trojans []tasp.Trojan
	if cfg.Attack.Enabled && len(ref.InfectedLinks) > 0 {
		yBits := cfg.Attack.YBits
		if yBits == 0 {
			yBits = tasp.DefaultPayloadBits
		}
		key := trojanKey{cfg.Attack.Kind, cfg.Attack.Target, yBits, ref.HijackRouter,
			cfg.Attack.DutyPeriod, cfg.Attack.DutyActive, len(ref.InfectedLinks)}
		trojans = p.trojans[key]
		if trojans == nil {
			trojans = newTrojans(key, p.net.Layout())
			p.trojans[key] = trojans
		}
	}
	return p, gen, trojans, nil
}

// newTrojans builds one deployment's trojan set with the tasp constructors.
func newTrojans(k trojanKey, l flit.Layout) []tasp.Trojan {
	var coord *tasp.Collusion
	if k.kind == tasp.KindCollude {
		coord = tasp.NewCollusion(k.period)
	}
	out := make([]tasp.Trojan, k.n)
	for i := range out {
		switch k.kind {
		case tasp.KindDrop:
			out[i] = tasp.NewDropper(k.target, l)
		case tasp.KindMisroute:
			out[i] = tasp.NewMisrouter(k.target, uint8(k.hijack), l)
		case tasp.KindThrottle:
			out[i] = tasp.NewThrottledDropper(k.target, l, k.period, k.active)
		case tasp.KindCollude:
			out[i] = tasp.NewColludingDropper(k.target, l, coord)
		default:
			out[i] = tasp.New(k.target, k.yBits, l)
		}
	}
	return out
}

// point replays one grid point. ref is RunInto's result for the same
// configuration; the replay takes the attacker's resolved placement and
// misroute hijack router from it.
func (rp *replayer) point(index int, cfg core.ExperimentConfig, ref *core.Results) (*core.Results, error) {
	if err := supported(cfg); err != nil {
		return nil, err
	}
	p, gen, trojans, err := rp.prepare(index, cfg, ref)
	if err != nil {
		return nil, err
	}
	tr := rp.tr
	rp.acc = perCycle{}
	root := tr.begin("replay", index, -1)
	pointStart := tr.spans[root].Start

	// ---- per-point install, in RunInto's order ----
	setup := tr.begin("core.point_setup", index, root)
	enableAt := uint64(cfg.Warmup)
	res := &core.Results{
		Config:        cfg,
		InfectedLinks: append([]int(nil), ref.InfectedLinks...),
		HijackRouter:  -1,
		Latency:       stats.NewHistogram(),
		Detections:    map[int]detect.Classification{},
		TriggerScopes: map[int]string{},
		AckVerdicts:   map[int]detect.AckClass{},
		AckChannels:   map[int]detect.AckChannel{},
	}
	net := p.net
	net.Reset()
	infected := res.InfectedLinks
	if cfg.Attack.Enabled && cfg.Attack.Kind == tasp.KindMisroute {
		res.HijackRouter = ref.HijackRouter
	}
	for i, t := range trojans {
		t.Reset()
		if cd, ok := t.(*tasp.ColludingDropper); ok {
			cd.SetRole(i, len(trojans))
		}
	}
	isInfected := make([]bool, len(p.wires))
	for _, id := range infected {
		isInfected[id] = true
	}
	mitigated := cfg.Mitigation == core.S2SLOb
	ti := 0
	for _, l := range net.LinkSlice() {
		chain := p.chains[l.ID][:0]
		if isInfected[l.ID] && cfg.Attack.Enabled {
			chain = append(chain, trojans[ti])
			ti++
		}
		p.chains[l.ID] = chain
		var tap fault.Adversary = fault.None
		if len(chain) > 0 {
			tap = &p.chains[l.ID]
		}
		w := p.wires[l.ID]
		w.Reset(tap, cfg.Seed^0x10b^uint64(l.ID))
		w.Mitigated = mitigated
		net.SetWire(l.ID, p.timed[l.ID])
	}
	trackVictim := false
	var victim uint8
	switch cfg.Attack.Target.Kind {
	case tasp.TargetDest, tasp.TargetDestSrc, tasp.TargetFull:
		trackVictim, victim = true, cfg.Attack.Target.DstR
	}
	net.SetDelivered(func(d noc.Delivery) {
		res.Latency.Observe(d.Latency)
		if trackVictim && d.Hdr.DstR == victim && net.Cycle() >= enableAt {
			res.VictimDelivered++
		}
	})
	var tel *noc.LinkTelemetry
	var eng *locate.Engine
	if cfg.Locate {
		s := tr.begin("locate.new", index, setup)
		tel = net.EnableTelemetry(0)
		eng = locate.New(net.Topology(), net.LinkSlice())
		tr.end(s)
	}
	var ackmon *detect.AckMonitor
	if cfg.SecureAck {
		ackmon = p.ackmon
		ackmon.Reset()
		ackmon.DeficitRatio = cfg.AckDeficitRatio
	}
	clear(p.disabled)
	gen.Reset(cfg.Seed)
	tr.end(setup)

	gather := func() map[int]locate.LinkEvidence {
		for _, l := range net.LinkSlice() {
			op := net.LinkOutput(l.ID)
			var ackGap uint64
			if op.FlitsSent > op.FlitsRecv {
				ackGap = op.FlitsSent - op.FlitsRecv
			}
			ev := locate.LinkEvidence{
				Class:           p.wires[l.ID].Detector.Classification(),
				Retransmissions: op.Retransmissions,
				FlitsSent:       op.FlitsSent,
				AckGap:          ackGap,
				RouteViolations: op.RouteViolations,
			}
			if ackmon != nil {
				ev.Ack = ackmon.Class(l.ID)
			}
			p.evidence[l.ID] = ev
		}
		return p.evidence
	}
	acc := &rp.acc
	inject := func(core int, pk *flit.Packet) bool {
		start := nowNs()
		ok := net.Inject(core, pk)
		acc.inject.add(nowNs() - start)
		if !ok {
			acc.refused++
		}
		return ok
	}

	// ---- the cycle loop ----
	total := cfg.Warmup + cfg.Measure
	rerouted := false
	for c := 0; c < total; c++ {
		if net.Cycle()+1 == enableAt {
			for _, ht := range trojans {
				ht.SetKillSwitch(true)
			}
		}
		t0 := nowNs()
		gen.TickInto(&p.scratch, inject)
		t1 := nowNs()
		acc.tick.add(t1 - t0)
		t2 := nowNs()
		net.Step()
		acc.step.add(nowNs() - t2)
		if net.Cycle() == enableAt {
			res.AtEnable = net.Counters
		}
		if cfg.Mitigation == core.Rerouting && !rerouted && cfg.Attack.Enabled &&
			net.Cycle() >= enableAt+rerouteDelay {
			for _, id := range infected {
				p.disabled[id] = true
			}
			s := tr.begin("reroute.apply", index, root)
			_, err := reroute.Apply(net, p.disabled)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("rerouting baseline: %w", err)
			}
			rerouted = true
			res.ReroutedAt = net.Cycle()
		}
		if mitigated && res.FirstTrojanAt == 0 {
			for _, w := range p.wires {
				if w.Detector.Classification() == detect.Trojan {
					res.FirstTrojanAt = net.Cycle()
					break
				}
			}
		}
		if int(net.Cycle())%sampleEvery != 0 {
			continue
		}
		s := tr.begin("noc.occupancy", index, root)
		occ := net.Occupancy()
		tr.end(s)
		res.Samples = append(res.Samples, core.Sample{Occupancy: occ})
		acc.samples++
		acc.flitsSeen += int64(occ.InputFlits + occ.OutputFlits)
		if ackmon != nil {
			s := tr.begin("detect.window", index, root)
			for _, l := range net.LinkSlice() {
				op := net.LinkOutput(l.ID)
				ackmon.Observe(l.ID, detect.AckObservation{
					FlitsSent:       op.FlitsSent,
					FlitsRecv:       op.FlitsRecv,
					RouteViolations: op.RouteViolations,
					Blocked:         net.LinkBlocked(l.ID),
				})
			}
			ackmon.FinishWindow()
			tr.end(s)
			if res.AckFlaggedAt == 0 && ackmon.Flagged() > 0 {
				res.AckFlaggedAt = net.Cycle()
			}
		}
		if tel != nil {
			s := tr.begin("noc.telemetry", index, root)
			tel.Sample()
			tr.end(s)
			if net.Cycle() >= enableAt {
				s := tr.begin("locate.rank", index, root)
				ranked := eng.Rank(tel, gather())
				tr.end(s)
				res.SuspectTrace = append(res.SuspectTrace, locate.TraceSample{
					Cycle:      net.Cycle(),
					LinkID:     ranked[0].LinkID,
					Score:      ranked[0].Score,
					Confidence: ranked[0].Confidence,
				})
			}
		}
	}
	acc.cycles = int64(total)

	// ---- results ----
	collect := tr.begin("core.collect", index, root)
	res.Final = net.Counters
	if cfg.Measure > 0 {
		res.Throughput = float64(res.Final.DeliveredPackets-res.AtEnable.DeliveredPackets) / float64(cfg.Measure)
	}
	res.AvgLatency = res.Final.AvgLatency()
	for _, t := range trojans {
		m, s := t.Stats()
		res.HTMatches += m
		res.HTInjections += s
	}
	if ackmon != nil {
		for _, l := range net.LinkSlice() {
			if c := ackmon.Class(l.ID); c != detect.AckHealthy {
				res.AckVerdicts[l.ID] = c
				if ch := ackmon.Channel(l.ID); ch != detect.ChannelNone {
					res.AckChannels[l.ID] = ch
				}
			}
		}
	}
	for _, l := range net.LinkSlice() {
		w := p.wires[l.ID]
		res.Obfuscated += w.Obfuscated
		res.StallCycles += w.StallCycles
		res.BISTScans += w.BISTScans
		if cl := w.Detector.Classification(); cl != detect.Healthy {
			res.Detections[l.ID] = cl
			res.TriggerScopes[l.ID] = w.Detector.TriggerScope()
		}
	}
	tr.end(collect)
	if eng != nil {
		s := tr.begin("locate.rank", index, root)
		res.Suspects = eng.Rank(tel, gather())
		tr.end(s)
		s = tr.begin("locate.rank", index, root)
		res.SuspectsTelemetry = eng.RankWeighted(locate.TelemetryWeights(), tel, nil)
		tr.end(s)
	}
	tr.end(root)

	pointEnd := tr.spans[root].End
	step := tr.aggregate("noc.step", index, root, pointStart, pointEnd, acc.step)
	tr.aggregate("core.wire", index, step, pointStart, pointEnd, acc.wire)
	tick := tr.aggregate("traffic.tick", index, root, pointStart, pointEnd, acc.tick)
	tr.aggregate("noc.inject", index, tick, pointStart, pointEnd, acc.inject)
	acc.obfuscated = int64(res.Obfuscated)
	rp.total.add(acc.counts)
	return res, nil
}
