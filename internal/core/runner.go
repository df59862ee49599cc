package core

import (
	"fmt"

	"tasp/internal/detect"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/lob"
	"tasp/internal/locate"
	"tasp/internal/noc"
	"tasp/internal/obfe2e"
	"tasp/internal/qos"
	"tasp/internal/reroute"
	"tasp/internal/stats"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// Runner executes experiments against reusable simulation arenas. One-shot
// callers get identical behaviour to the old core.Run (which is now a thin
// wrapper); the campaign engine keeps one Runner per worker so repeated
// points on the same platform reuse a single network, its wires, trojans,
// traffic generators and result storage instead of reallocating them —
// the basis of the 0 allocs/point steady-state contract.
//
// A Runner is NOT safe for concurrent use; give each worker its own.
type Runner struct {
	arenas map[noc.Config]*arena
	models map[modelKey]*traffic.Model

	// audit, when set, runs at the end of every simulated cycle, after the
	// cycle's sampling and any recovery reconfiguration; an error aborts
	// the run. Tests install noc.Network.CheckInvariants here.
	audit func(*noc.Network) error

	// fork is the checkpoint RunGroup's members share, kept the results a
	// later member repeats, and order the order RunGroup runs a group's
	// members in (fork.go). cfgs holds the group RunGroups lowered last
	// (pool.go).
	fork  forkStore
	kept  keptRun
	order []int
	cfgs  []ExperimentConfig
}

// NewRunner returns an empty Runner; arenas are built on first use per
// effective network configuration.
func NewRunner() *Runner {
	return &Runner{
		arenas: map[noc.Config]*arena{},
		models: map[modelKey]*traffic.Model{},
	}
}

type modelKey struct {
	name string
	cfg  noc.Config
}

// model memoizes benchmark traffic models: building one walks every
// src/dst pair's route, far too expensive per point.
func (r *Runner) model(name string, cfg noc.Config) (*traffic.Model, error) {
	k := modelKey{name, cfg}
	if m := r.models[k]; m != nil {
		return m, nil
	}
	m, err := traffic.Benchmark(name, cfg)
	if err != nil {
		return nil, err
	}
	r.models[k] = m
	return m, nil
}

type placementKey struct {
	model  *traffic.Model
	k      int
	target tasp.Target
}

type trojanKey struct {
	kind   tasp.Kind
	target tasp.Target
	yBits  int
	hijack int
	period int
	active int
}

// arena is one reusable simulation platform: a network plus every per-link
// and per-run component an experiment wires onto it, all reset in place
// between points. It is keyed by the effective noc.Config (after any
// mitigation-driven mutation such as TDM's retransmission partitioning).
type arena struct {
	cfg noc.Config
	net *noc.Network

	wires      []*SecureWire      // per link id, installed each point
	chains     []fault.Chain      // per link id, reusable injector chain storage
	transients []*fault.Transient // per link id, lazily built, reseeded per point
	isInfected []bool             // per link id scratch

	placements map[placementKey][]int
	trojans    map[trojanKey][]tasp.Trojan
	colls      map[int]*tasp.Collusion // per slice length, shared by a collude set
	gens       map[*traffic.Model]*traffic.Generator

	// disabled is the cumulative reconfiguration set for the current point:
	// the Rerouting baseline and conviction-driven recovery both feed it,
	// and every reroute.Apply receives the full set (the route builder does
	// not consult the network's own disabled-link state).
	disabled map[int]bool

	// rerouted is the Rerouting baseline's last table and reroutedIDs the
	// links it avoids (reroute).
	rerouted    *reroute.Table
	reroutedIDs []int

	// ackmon is the memoized secure-ack monitor (SecureAck points only).
	ackmon *detect.AckMonitor

	tdm         *qos.TDM
	tdmSchedule func(cycle uint64, vc uint8) bool
	e2e         *obfe2e.Scrambler
	locator     *locate.Engine // built on the first Locate point
	evScratch   map[int]locate.LinkEvidence
	ranked      []locate.Suspect // per-sample localization ranking
	scratch     flit.Packet      // reused injection packet (TickInto)

	// Per-point state the hoisted closures read. The closures are created
	// once at arena construction so installing them per point costs nothing.
	res         *Results
	curTDM      *qos.TDM
	curE2E      *obfe2e.Scrambler
	trackVictim bool
	victim      uint8
	enableAt    uint64

	deliveredFn func(d noc.Delivery)
	injectFn    func(core int, p *flit.Packet) bool
}

// arena returns the reusable platform for an effective network
// configuration, building it on first use.
func (r *Runner) arena(cfg noc.Config) (*arena, error) {
	if a := r.arenas[cfg]; a != nil {
		return a, nil
	}
	net, err := noc.New(cfg)
	if err != nil {
		return nil, err
	}
	layout := cfg.Layout()
	links := net.LinkSlice()
	a := &arena{
		cfg:        cfg,
		net:        net,
		wires:      make([]*SecureWire, len(links)),
		chains:     make([]fault.Chain, len(links)),
		transients: make([]*fault.Transient, len(links)),
		isInfected: make([]bool, len(links)),
		placements: map[placementKey][]int{},
		trojans:    map[trojanKey][]tasp.Trojan{},
		colls:      map[int]*tasp.Collusion{},
		gens:       map[*traffic.Model]*traffic.Generator{},
		disabled:   map[int]bool{},
	}
	windows := lob.WindowsFor(layout) // shared: read-only after construction
	for i := range a.wires {
		a.wires[i] = newSecureWire(fault.None, 0, layout, windows)
	}
	a.deliveredFn = func(d noc.Delivery) {
		a.res.Latency.Observe(d.Latency)
		if a.trackVictim && d.Hdr.DstR == a.victim && a.net.Cycle() >= a.enableAt {
			a.res.VictimDelivered++
		}
	}
	a.injectFn = func(core int, p *flit.Packet) bool {
		if a.curTDM != nil {
			p.Hdr.VC = a.curTDM.AssignVC(core, p.Hdr.Seq)
		}
		if a.curE2E != nil {
			p.Hdr.SrcR = uint8(a.cfg.CoreRouter(core)) // key derivation needs src
			a.curE2E.Apply(p)
		}
		return a.net.Inject(core, p)
	}
	r.arenas[cfg] = a
	return a, nil
}

// placement memoizes the attacker's optimal link selection, which reruns the
// analytic load model and a connectivity check per candidate. The returned
// slice is shared — callers must copy, not mutate.
func (a *arena) placement(m *traffic.Model, k int, target tasp.Target) []int {
	key := placementKey{m, k, target}
	if p, ok := a.placements[key]; ok {
		return p
	}
	p := ChooseInfectedLinks(m, a.net, k, target)
	a.placements[key] = p
	return p
}

// trojanSet returns n reset trojans of one family for a target, reusing
// previously compiled instances (the comparator taps and wire tables depend
// only on the family, target, hijack, duty cycle and the arena's layout).
// Colluding sets get their rotation roles reassigned per call — the memoized
// slice may be cut to a different n between points.
func (a *arena) trojanSet(kind tasp.Kind, target tasp.Target, yBits, hijack, period, active, n int) []tasp.Trojan {
	key := trojanKey{kind, target, yBits, hijack, period, active}
	ts := a.trojans[key]
	for len(ts) < n {
		switch kind {
		case tasp.KindDrop:
			ts = append(ts, tasp.NewDropper(target, a.net.Layout()))
		case tasp.KindMisroute:
			ts = append(ts, tasp.NewMisrouter(target, uint8(hijack), a.net.Layout()))
		case tasp.KindThrottle:
			ts = append(ts, tasp.NewThrottledDropper(target, a.net.Layout(), period, active))
		case tasp.KindCollude:
			coord := a.colls[period]
			if coord == nil {
				coord = tasp.NewCollusion(period)
				a.colls[period] = coord
			}
			ts = append(ts, tasp.NewColludingDropper(target, a.net.Layout(), coord))
		default:
			ts = append(ts, tasp.New(target, yBits, a.net.Layout()))
		}
	}
	a.trojans[key] = ts
	ts = ts[:n]
	for i, t := range ts {
		t.Reset()
		if cd, ok := t.(*tasp.ColludingDropper); ok {
			cd.SetRole(i, n)
		}
	}
	return ts
}

// reroute disables a.disabled's links and installs routes around them, as
// reroute.Apply does. The table is kept with the links it avoids: the
// Rerouting baseline disables the same placement point after point, and a
// kept table installs without allocating.
func (a *arena) reroute() error {
	same := a.rerouted != nil && len(a.reroutedIDs) == len(a.disabled)
	for _, id := range a.reroutedIDs {
		same = same && a.disabled[id]
	}
	if !same {
		t, err := reroute.Build(a.cfg, a.net.LinkSlice(), a.disabled)
		if err != nil {
			return err
		}
		a.rerouted, a.reroutedIDs = t, a.reroutedIDs[:0]
		for _, l := range a.net.LinkSlice() {
			if a.disabled[l.ID] {
				a.reroutedIDs = append(a.reroutedIDs, l.ID)
			}
		}
	}
	a.rerouted.Install(a.net, a.disabled)
	return nil
}

// autoHijack picks the misroute hijack router for a victim: the router
// farthest from it by hop distance (ties to the higher id), so the
// diversion path is maximal and, on every supported substrate, already
// diverges at the first hop.
func autoHijack(t noc.Topology, victim int) int {
	best, bestDist := victim, -1
	for cand := 0; cand < t.Routers(); cand++ {
		if d := t.HopDist(victim, cand); cand != victim && d >= bestDist {
			best, bestDist = cand, d
		}
	}
	return best
}

// generator returns the memoized traffic generator for a model, rewound to
// the given seed.
func (a *arena) generator(m *traffic.Model, seed uint64) *traffic.Generator {
	g := a.gens[m]
	if g == nil {
		g = m.Generator(seed)
		a.gens[m] = g
		return g
	}
	g.Reset(seed)
	return g
}

// Run executes one experiment into a fresh Results (the one-shot API; the
// old core.Run delegates here).
func (r *Runner) Run(cfg ExperimentConfig) (*Results, error) {
	res := &Results{}
	if err := r.RunInto(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// noResults is the Results of a point that has not run yet. Nothing
// writes it.
var noResults = Results{HijackRouter: -1, Latency: stats.NewHistogram()}

// resetResults rewinds a Results for reuse: it becomes a copy of noResults
// in its own grown storage, which is kept — the amortisation RunInto's
// steady state relies on.
func resetResults(res *Results, cfg ExperimentConfig) {
	copyResults(res, &noResults)
	res.Config = cfg
}

// RunInto executes one experiment into a caller-owned Results, reusing both
// the Results' storage and the Runner's arena for the experiment's platform.
// Repeated same-platform points with the none, s2s-lob or rerouting
// mitigations run allocation-free at steady state; points that recover on
// a conviction or scramble end-to-end pay their own per-point costs.
//
// The behaviour is exactly the old core.Run's: same seeded draw order, same
// phase structure, same results — enforced by the golden experiment output
// and the fresh-vs-reused equivalence test.
func (r *Runner) RunInto(cfg ExperimentConfig, res *Results) error {
	return r.run(cfg, res, runWhole, 0)
}

// The defaults a run reads a configuration's zero (or negative) fields as.
const (
	defaultSampleEvery        = 25  // occupancy sampling period
	defaultRerouteDetectDelay = 200 // rerouting baseline's reaction time
)

// withDefaults applies the defaults and mitigation-driven platform changes a
// run makes to its configuration; Results.Config holds the outcome.
func withDefaults(cfg *ExperimentConfig) {
	if cfg.Mitigation == TDMQoS {
		// SurfNoC-style non-interference partitions the retransmission
		// buffers between the domains too.
		cfg.Noc.PartitionRetrans = true
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = defaultSampleEvery
	}
	if cfg.RerouteDetectDelay <= 0 {
		cfg.RerouteDetectDelay = defaultRerouteDetectDelay
	}
}

// run executes one experiment; mode says whether it checkpoints its
// warm-up for later group members, or resumes from the stored checkpoint.
// A nonzero twinAt checkpoints the run again at the end of cycle twinAt-1,
// for a rerouting member that reroutes at the end of cycle twinAt.
func (r *Runner) run(cfg ExperimentConfig, res *Results, mode runMode, twinAt uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	model := cfg.Model
	if model == nil {
		m, err := r.model(cfg.Benchmark, cfg.Noc)
		if err != nil {
			return err
		}
		model = m
	}
	withDefaults(&cfg)
	a, err := r.arena(cfg.Noc)
	if err != nil {
		return err
	}
	enableAt := cfg.EnableCycle()

	resetResults(res, cfg)
	net := a.net
	net.Reset()

	// ---- attack deployment ----
	res.InfectedLinks = append(res.InfectedLinks, cfg.Attack.Links...)
	if cfg.Attack.Enabled && len(res.InfectedLinks) == 0 {
		k := cfg.Attack.NumLinks
		if k <= 0 {
			k = 1
		}
		res.InfectedLinks = append(res.InfectedLinks, a.placement(model, k, cfg.Attack.Target)...)
	}
	infected := res.InfectedLinks
	yBits := cfg.Attack.YBits
	if yBits == 0 {
		yBits = tasp.DefaultPayloadBits
	}

	// ---- wire assembly ----
	mitigated := cfg.Mitigation == S2SLOb
	wantCap := cfg.DetectorHistory
	if wantCap <= 0 {
		wantCap = detect.DefaultHistoryCap
	}
	// A negative hijack means auto-select; 0 is a legitimate explicit choice
	// (router 0 exists on every substrate), so the sentinel is -1, not 0.
	hijack := cfg.Attack.Hijack
	if cfg.Attack.Enabled && cfg.Attack.Kind == tasp.KindMisroute {
		if hijack < 0 {
			hijack = autoHijack(net.Topology(), int(cfg.Attack.Target.DstR))
		}
		res.HijackRouter = hijack
	}
	var trojans []tasp.Trojan
	if cfg.Attack.Enabled && len(infected) > 0 {
		trojans = a.trojanSet(cfg.Attack.Kind, cfg.Attack.Target, yBits, hijack,
			cfg.Attack.DutyPeriod, cfg.Attack.DutyActive, len(infected))
	}
	for i := range a.isInfected {
		a.isInfected[i] = false
	}
	for _, id := range infected {
		a.isInfected[id] = true
	}
	ti := 0
	for _, l := range net.LinkSlice() {
		chain := a.chains[l.ID][:0]
		if a.isInfected[l.ID] && cfg.Attack.Enabled {
			chain = append(chain, trojans[ti])
			ti++
		}
		if cfg.TransientBER > 0 {
			tr := a.transients[l.ID]
			if tr == nil {
				tr = fault.NewTransient(cfg.TransientBER, cfg.Seed^uint64(l.ID)<<8)
				a.transients[l.ID] = tr
			} else {
				tr.Reset(cfg.TransientBER, cfg.Seed^uint64(l.ID)<<8)
			}
			chain = append(chain, tr)
		}
		a.chains[l.ID] = chain
		var tap fault.Adversary = fault.None
		if len(chain) > 0 {
			// *Chain (not Chain) keeps the interface assignment pointer-
			// shaped: boxing the slice header would allocate per link.
			tap = &a.chains[l.ID]
		}
		w := a.wires[l.ID]
		w.Reset(tap, cfg.Seed^0x10b^uint64(l.ID))
		// A latching warm-up runs every wire mitigated until the checkpoint,
		// for the flow latches a later s2s-lob member resumes with. Before
		// enable a mitigated wire sends every flit plain, as an unmitigated
		// one does.
		w.Mitigated = mitigated || mode == runLatch
		w.Escalation = cfg.EscalationOrder
		if w.Detector.Cap() != wantCap {
			w.Detector = detect.New(wantCap)
		}
		net.SetWire(l.ID, w)
	}

	// ---- mitigation-specific setup ----
	var tdm *qos.TDM
	if cfg.Mitigation == TDMQoS {
		if a.tdm == nil {
			a.tdm = qos.NewTDM(cfg.Noc)
			a.tdmSchedule = a.tdm.Schedule
		}
		tdm = a.tdm
		net.SetLinkSchedule(a.tdmSchedule)
	}
	var e2e *obfe2e.Scrambler
	if cfg.Mitigation == E2EObfuscation {
		if a.e2e == nil {
			a.e2e = obfe2e.New(cfg.Seed ^ 0xe2e)
		} else {
			a.e2e.Reseed(cfg.Seed ^ 0xe2e)
		}
		e2e = a.e2e
	}

	// Delivery accounting: latency distribution plus, for destination-style
	// targets, the victim application's goodput.
	trackVictim := false
	var victim uint8
	switch cfg.Attack.Target.Kind {
	case tasp.TargetDest, tasp.TargetDestSrc, tasp.TargetFull:
		trackVictim, victim = true, cfg.Attack.Target.DstR
	}
	a.res = res
	a.curTDM, a.curE2E = tdm, e2e
	a.trackVictim, a.victim = trackVictim, victim
	a.enableAt = enableAt
	net.SetDelivered(a.deliveredFn)

	// ---- localization + secure-ack layers ----
	var tel *noc.LinkTelemetry
	var eng *locate.Engine
	if cfg.Locate {
		tel = net.EnableTelemetry(0)
		if a.locator == nil {
			a.locator = locate.New(net.Topology(), net.LinkSlice())
			a.evScratch = make(map[int]locate.LinkEvidence, len(a.wires))
		}
		eng = a.locator
	}
	var ackmon *detect.AckMonitor
	if cfg.SecureAck {
		if a.ackmon == nil {
			a.ackmon = detect.NewAckMonitor(len(net.LinkSlice()))
		} else {
			a.ackmon.Reset()
		}
		ackmon = a.ackmon
		ackmon.DeficitRatio = cfg.AckDeficitRatio
	}
	clear(a.disabled)
	if len(cfg.PredisabledLinks) > 0 {
		// Post-fault capacity oracle: the links are down (with the safe
		// reconfiguration) from the very first cycle, as if recovery had
		// convicted them instantly and for free.
		for _, id := range cfg.PredisabledLinks {
			a.disabled[id] = true
		}
		if _, err := reroute.ApplySafe(net, a.disabled); err != nil {
			return fmt.Errorf("predisable: %w", err)
		}
	}
	gatherEvidence := func() map[int]locate.LinkEvidence {
		for _, l := range net.LinkSlice() {
			op := net.LinkOutput(l.ID)
			// Clamped like the monitor's: sampling skew can put recv
			// momentarily ahead of sent, and an unsigned wrap here would
			// swamp the ranking's anomaly term.
			var ackGap uint64
			if op.FlitsSent > op.FlitsRecv {
				ackGap = op.FlitsSent - op.FlitsRecv
			}
			ev := locate.LinkEvidence{
				Class:           a.wires[l.ID].Detector.Classification(),
				Retransmissions: op.Retransmissions,
				FlitsSent:       op.FlitsSent,
				AckGap:          ackGap,
				RouteViolations: op.RouteViolations,
			}
			if ackmon != nil {
				ev.Ack = ackmon.Class(l.ID)
			}
			a.evScratch[l.ID] = ev
		}
		return a.evScratch
	}

	gen := a.generator(model, cfg.Seed)

	// ---- main loop ----
	total := cfg.Warmup + cfg.Measure
	rerouted := false
	if mode == runResume {
		r.fork.restore(a, gen, ackmon, res, trojans, mitigated)
	}
	for c := int(net.Cycle()); c < total; c++ {
		if net.Cycle()+1 == enableAt {
			if mode == runCheckpoint || mode == runLatch {
				r.fork.save(&cfg, a, gen, ackmon, res, nil, mode == runLatch)
				for _, w := range a.wires {
					w.Mitigated = mitigated
				}
			}
			for _, ht := range trojans {
				ht.SetKillSwitch(true)
			}
		}
		if net.Cycle()+1 == twinAt {
			r.fork.save(&cfg, a, gen, ackmon, res, trojans, false)
		}
		gen.TickInto(&a.scratch, a.injectFn)
		net.Step()
		if net.Cycle() == enableAt {
			res.AtEnable = net.Counters
		}
		if cfg.Mitigation == Rerouting && !rerouted && cfg.Attack.Enabled &&
			net.Cycle() >= enableAt+uint64(cfg.RerouteDetectDelay) {
			for _, id := range infected {
				a.disabled[id] = true
			}
			if err := a.reroute(); err != nil {
				return fmt.Errorf("rerouting baseline: %w", err)
			}
			rerouted = true
			res.ReroutedAt = net.Cycle()
		}
		if mitigated && res.FirstTrojanAt == 0 {
			for _, w := range a.wires {
				if w.Detector.Classification() == detect.Trojan {
					res.FirstTrojanAt = net.Cycle()
					break
				}
			}
		}
		if int(net.Cycle())%cfg.SampleEvery == 0 {
			s := Sample{Occupancy: net.Occupancy()}
			if tdm != nil {
				for d := 0; d < qos.NumDomains; d++ {
					s.Domain[d] = tdm.OccupancyOf(net, d)
				}
			}
			res.Samples = append(res.Samples, s)
			if ackmon != nil {
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
				if res.AckFlaggedAt == 0 && ackmon.Flagged() > 0 {
					res.AckFlaggedAt = net.Cycle()
				}
				if cfg.RecoverOnConvict {
					// Conviction-driven recovery: every newly convicted
					// link joins the cumulative reconfiguration set and the
					// routes rebuild around it — retransmit-around on the
					// surviving topology.
					newly := false
					for _, l := range net.LinkSlice() {
						if c := ackmon.Class(l.ID); (c == detect.AckDropper || c == detect.AckMisroute) && !a.disabled[l.ID] {
							a.disabled[l.ID] = true
							res.RecoveredLinks = append(res.RecoveredLinks, l.ID)
							newly = true
						}
					}
					if newly {
						if res.RecoveredAt == 0 {
							res.RecoveredAt = net.Cycle()
							res.AtRecover = net.Counters
							res.VictimAtRecover = res.VictimDelivered
						}
						if _, err := reroute.ApplySafe(net, a.disabled); err != nil {
							return fmt.Errorf("recover-on-convict: %w", err)
						}
					}
				}
			}
			if tel != nil {
				tel.Sample()
				if net.Cycle() >= enableAt {
					a.ranked = eng.RankWeightedInto(a.ranked, locate.DefaultWeights(), tel, gatherEvidence())
					top := &a.ranked[0]
					res.SuspectTrace = append(res.SuspectTrace, locate.TraceSample{
						Cycle:      net.Cycle(),
						LinkID:     top.LinkID,
						Score:      top.Score,
						Confidence: top.Confidence,
					})
				}
			}
		}
		if r.audit != nil {
			if err := r.audit(net); err != nil {
				return fmt.Errorf("cycle %d: %w", net.Cycle(), err)
			}
		}
	}

	// ---- results ----
	res.Final = net.Counters
	if counted := total - int(enableAt); counted > 0 {
		// The deliveries counted are those from the enable cycle on.
		res.Throughput = float64(res.Final.DeliveredPackets-res.AtEnable.DeliveredPackets) / float64(counted)
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
	if eng != nil {
		res.Suspects = eng.RankWeightedInto(res.Suspects, locate.DefaultWeights(), tel, gatherEvidence())
		res.SuspectsTelemetry = eng.RankWeightedInto(res.SuspectsTelemetry, locate.TelemetryWeights(), tel, nil)
	}
	for _, l := range net.LinkSlice() {
		w := a.wires[l.ID]
		res.Obfuscated += w.Obfuscated
		res.StallCycles += w.StallCycles
		res.BISTScans += w.BISTScans
		if cl := w.Detector.Classification(); cl != detect.Healthy {
			res.Detections[l.ID] = cl
			res.TriggerScopes[l.ID] = w.Detector.TriggerScope()
		}
	}
	return nil
}
