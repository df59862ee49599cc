package core

import (
	"errors"
	"fmt"
	"sort"

	"tasp/internal/detect"
	"tasp/internal/ecc"
	"tasp/internal/lob"
	"tasp/internal/locate"
	"tasp/internal/noc"
	"tasp/internal/qos"
	"tasp/internal/reroute"
	"tasp/internal/stats"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// Mitigation selects the defence installed for a run.
type Mitigation int

// The paper's configurations: no protection, the proposed switch-to-switch
// threat detector + L-Ob, FortNoCs-style end-to-end obfuscation, SurfNoC-
// style two-domain TDM QoS, and Ariadne-style rerouting.
const (
	NoMitigation Mitigation = iota
	S2SLOb
	E2EObfuscation
	TDMQoS
	Rerouting
)

// String names the mitigation.
func (m Mitigation) String() string {
	switch m {
	case NoMitigation:
		return "none"
	case S2SLOb:
		return "s2s-lob"
	case E2EObfuscation:
		return "e2e-obfuscation"
	case TDMQoS:
		return "tdm-qos"
	case Rerouting:
		return "rerouting"
	default:
		return fmt.Sprintf("mitigation(%d)", int(m))
	}
}

// ParseMitigation resolves a mitigation name (as produced by String) back to
// its value — the campaign scenario files and CLI flags use the names.
func ParseMitigation(s string) (Mitigation, error) {
	for _, m := range []Mitigation{NoMitigation, S2SLOb, E2EObfuscation, TDMQoS, Rerouting} {
		if m.String() == s {
			return m, nil
		}
	}
	return NoMitigation, fmt.Errorf("unknown mitigation %q (want none, s2s-lob, e2e-obfuscation, tdm-qos or rerouting)", s)
}

// AttackConfig describes the trojan deployment for a run.
type AttackConfig struct {
	Enabled bool
	// Kind selects the trojan family on the infected links: the TASP
	// double-flip (the zero value), the ACK-forging dropper, or the
	// header-rewriting misrouter. All families share the trigger
	// architecture, placement analysis and kill-switch protocol.
	Kind tasp.Kind
	// Target is the programmed comparator value. The zero value targets
	// destination router 0 — the primary core of most benchmarks.
	Target tasp.Target
	// YBits is the payload-counter width (0 = tasp.DefaultPayloadBits).
	// Flip family only.
	YBits int
	// Hijack is the router misrouted packets are delivered to (misroute
	// family only). Negative selects automatically: the router farthest
	// from the victim by the topology's hop distance (ties to the higher
	// id), so the diversion is maximal and the first hop diverges from the
	// legitimate path. Router 0 is a valid explicit choice — the sentinel
	// is -1, not 0.
	Hijack int
	// DutyPeriod and DutyActive define the adaptive families' duty cycle in
	// cycles: a throttle trojan strikes during DutyActive cycles of every
	// DutyPeriod; a collusion set rotates the strike duty in slices of
	// DutyPeriod cycles (DutyActive is ignored). 0 = the tasp defaults,
	// tuned to sit under the secure-ack streak threshold at the default
	// sampling window.
	DutyPeriod int
	DutyActive int
	// Links explicitly lists infected link ids. When empty, the NumLinks
	// hottest links for the workload are infected (the attacker's optimal
	// placement from Section III-A).
	Links    []int
	NumLinks int
	// EnableAt is the cycle the external kill switch flips on
	// (0 = after warm-up, the paper's 1500-cycle protocol).
	EnableAt uint64
}

// ExperimentConfig is one full simulation run.
type ExperimentConfig struct {
	Noc       noc.Config
	Benchmark string         // traffic model name; ignored when Model is set
	Model     *traffic.Model // explicit model (overrides Benchmark)
	Seed      uint64

	Warmup      int // cycles before the attack enables (paper: 1500)
	Measure     int // cycles simulated after the attack enables
	SampleEvery int // occupancy sampling period (0 = 25 cycles)

	Attack     AttackConfig
	Mitigation Mitigation

	// TransientBER adds background single-event upsets on every link.
	TransientBER float64

	// RerouteDetectDelay is how many cycles after attack enable the
	// rerouting baseline takes to classify and disable the infected links
	// (Ariadne's reconfiguration trigger). 0 = 200 cycles.
	RerouteDetectDelay int

	// DetectorHistory overrides the threat detector's fault-history table
	// capacity (0 = detect.DefaultHistoryCap). Ablation knob.
	DetectorHistory int

	// EscalationOrder is the L-Ob method order the secured links walk on
	// consecutive failed retransmissions (nil = lob's default order).
	// Ablation knob; it is carried by the run, never by shared state, so
	// runs with different orders may execute concurrently.
	EscalationOrder []lob.Choice

	// Locate enables the network-level DoS localization layer: the
	// blocked-port telemetry tap is sampled every SampleEvery cycles and
	// the locate engine's fused ranking recorded (Results.Suspects and
	// Results.SuspectTrace). Observation-only — it never perturbs the
	// simulation.
	Locate bool

	// SecureAck enables secure-acknowledgment monitoring: every link's
	// sent/received counters are cross-checked each SampleEvery window
	// (detect.AckMonitor), convicting droppers and misrouters the
	// fault-triggered detector can never see. Verdicts land in
	// Results.AckVerdicts and, when Locate also runs, feed the ranking's
	// evidence. Observation-only unless RecoverOnConvict is set.
	SecureAck bool

	// AckDeficitRatio tunes the secure-ack monitor's cumulative-deficit
	// channel (0 = detect.DefaultDeficitRatio; negative disables the
	// deficit and fused channels — the stock streak-only detector, the
	// ablation arm adaptive trojans are tuned against).
	AckDeficitRatio float64

	// RecoverOnConvict turns secure-ack conviction into runtime recovery:
	// the moment the monitor convicts a link (any channel), the link is fed
	// to reroute.ApplySafe as a reconfiguration event and traffic
	// retransmits around it on the surviving topology, with the truncated
	// wormholes the attack and the cut left behind reclaimed. In-flight
	// traffic on the disabled link is dropped under the reconfig cause
	// (DroppedFlits split). Requires SecureAck.
	RecoverOnConvict bool

	// PredisabledLinks administratively disables links (by id) with the
	// safe reconfiguration (reroute.ApplySafe) before the run starts: the
	// post-fault capacity oracle. A recovery run's post-conviction goodput
	// is judged against an otherwise identical run that pre-disables the
	// convicted set — the gap isolates what recovery controls (detection
	// lag, reconfiguration debris) from the structural capacity the fabric
	// lost with the links.
	PredisabledLinks []int
}

// Validate checks the configuration against its platform before anything
// runs: the platform itself, the benchmark name (when no explicit Model is
// set), the run phases (Warmup and Measure non-negative, an explicit enable
// cycle inside the run), the attack target's router ids and VC, the
// infected and pre-disabled link ids, the hijack router, that the transient
// bit-error rate is a probability, and that RecoverOnConvict has the
// secure-ack monitor whose convictions it acts on.
// Each error names the field and its valid range. The link count is derived
// only when the configuration names links, so validating a point that names
// none allocates nothing.
func (c *ExperimentConfig) Validate() error {
	if err := c.Noc.Validate(); err != nil {
		return err
	}
	if c.Model == nil && !traffic.Known(c.Benchmark) {
		return fmt.Errorf("core: Benchmark = %q unknown (have %v)", c.Benchmark, traffic.Benchmarks())
	}
	if c.Warmup < 0 {
		return fmt.Errorf("core: Warmup = %d out of range: must be >= 0", c.Warmup)
	}
	if c.Measure < 0 {
		return fmt.Errorf("core: Measure = %d out of range: must be >= 0", c.Measure)
	}
	if end := uint64(c.Warmup + c.Measure); c.Attack.EnableAt != 0 && c.Attack.EnableAt >= end {
		// Past the run's last cycle, the kill switch never flips and
		// AtEnable is never snapshotted.
		return fmt.Errorf("core: Attack.EnableAt = %d out of range: 0 (end of warm-up) or below Warmup+Measure = %d", c.Attack.EnableAt, end)
	}
	routers := c.Noc.Routers()
	t := &c.Attack.Target
	k := t.Kind
	if k == tasp.TargetDest || k == tasp.TargetDestSrc || k == tasp.TargetFull {
		if err := inRange("Attack.Target.DstR", int(t.DstR), routers); err != nil {
			return err
		}
	}
	if k == tasp.TargetSrc || k == tasp.TargetDestSrc || k == tasp.TargetFull {
		if err := inRange("Attack.Target.SrcR", int(t.SrcR), routers); err != nil {
			return err
		}
	}
	if k == tasp.TargetVC || k == tasp.TargetFull {
		if err := inRange("Attack.Target.VC", int(t.VC), c.Noc.VCs); err != nil {
			return err
		}
	}
	if c.Attack.Hijack >= routers {
		return fmt.Errorf("core: Attack.Hijack = %d out of range: -1 (auto) or 0..%d", c.Attack.Hijack, routers-1)
	}
	if y := c.Attack.YBits; y != 0 && (y < 2 || y > ecc.CodewordBits) {
		// The trojan spreads its payload over y distinct codeword wires.
		return fmt.Errorf("core: Attack.YBits = %d out of range: 0 (default) or 2..%d", y, ecc.CodewordBits)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"Attack.NumLinks", c.Attack.NumLinks}, {"Attack.DutyPeriod", c.Attack.DutyPeriod},
		{"Attack.DutyActive", c.Attack.DutyActive}, {"SampleEvery", c.SampleEvery},
		{"RerouteDetectDelay", c.RerouteDetectDelay}, {"DetectorHistory", c.DetectorHistory},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: %s = %d out of range: must be >= 0", f.name, f.v)
		}
	}
	if c.Attack.Kind == tasp.KindThrottle {
		period := c.Attack.DutyPeriod
		if period == 0 {
			period = tasp.DefaultDutyPeriod
		}
		if c.Attack.DutyActive > period {
			return fmt.Errorf("core: Attack.DutyActive = %d out of range: 0 (default) or 1..%d, the throttle's DutyPeriod", c.Attack.DutyActive, period)
		}
	}
	if len(c.Attack.Links) > 0 || len(c.PredisabledLinks) > 0 {
		links := len(c.Noc.Topology().Links())
		for _, id := range c.Attack.Links {
			if err := inRange("Attack.Links entry", id, links); err != nil {
				return err
			}
		}
		for _, id := range c.PredisabledLinks {
			if err := inRange("PredisabledLinks entry", id, links); err != nil {
				return err
			}
		}
	}
	if !(c.TransientBER >= 0 && c.TransientBER <= 1) {
		return fmt.Errorf("core: TransientBER = %g out of range [0, 1]", c.TransientBER)
	}
	if c.RecoverOnConvict && !c.SecureAck {
		return errors.New("core: RecoverOnConvict requires SecureAck: recovery acts on the secure-ack monitor's convictions")
	}
	return nil
}

// inRange reports a field whose value v falls outside 0..n-1.
func inRange(field string, v, n int) error {
	if v < 0 || v >= n {
		return fmt.Errorf("core: %s = %d out of range 0..%d", field, v, n-1)
	}
	return nil
}

// DefaultExperiment returns the paper's standard protocol: the 64-core mesh,
// Blackscholes traffic, a 1500-cycle warm-up, and a TASP attack targeting
// the traffic of the application's primary router. The attack is a single
// point of attack around that router: under strict XY routing a trojan on
// one ingress link can only wedge that link's row segment, so the default
// cuts the primary's whole ingress (its two hottest target-flow links) —
// the paper itself notes "the number of compromised links is orthogonal"
// to the single-point-of-attack analysis.
func DefaultExperiment() ExperimentConfig {
	return ExperimentConfig{
		Noc:       noc.DefaultConfig(),
		Benchmark: "blackscholes",
		Seed:      1,
		Warmup:    1500,
		Measure:   1500,
		Attack: AttackConfig{
			Enabled:  true,
			Target:   tasp.ForDest(0),
			NumLinks: 2,
			Hijack:   -1, // auto-select (router 0 would be the victim itself)
		},
		Mitigation: NoMitigation,
	}
}

// EnableCycle is the cycle the attack's kill switch flips on: Attack.EnableAt,
// or the end of the warm-up when that is 0.
func (c *ExperimentConfig) EnableCycle() uint64 {
	if c.Attack.EnableAt != 0 {
		return c.Attack.EnableAt
	}
	return uint64(c.Warmup)
}

// Sample is one time-series point: the whole-network occupancy plus, for
// TDM runs, the per-domain split.
type Sample struct {
	noc.Occupancy
	Domain [qos.NumDomains]noc.Occupancy
}

// Results aggregates everything a run produced.
type Results struct {
	Config        ExperimentConfig
	InfectedLinks []int
	Samples       []Sample

	// Counter snapshots: at attack enable and at the end.
	AtEnable noc.Counters
	Final    noc.Counters

	// Throughput is delivered packets per cycle during the measure phase;
	// AvgLatency is over all delivered packets.
	Throughput float64
	AvgLatency float64

	// Attack-side telemetry.
	HTMatches    uint64
	HTInjections uint64

	// Defence-side telemetry (S2SLOb runs).
	Detections    map[int]detect.Classification
	TriggerScopes map[int]string
	Obfuscated    uint64
	StallCycles   uint64
	BISTScans     uint64

	// AckVerdicts holds the secure-ack monitor's non-healthy link verdicts
	// (SecureAck runs only); AckChannels the evidence channel that produced
	// each; AckFlaggedAt is the cycle the first link was convicted as a
	// dropper or misrouter (0 = never).
	AckVerdicts  map[int]detect.AckClass
	AckChannels  map[int]detect.AckChannel
	AckFlaggedAt uint64

	// HijackRouter is the effective misroute hijack destination after
	// auto-selection (-1 for non-misroute runs): the regression surface for
	// the -1 sentinel semantics (router 0 is a valid explicit hijack).
	HijackRouter int

	// ReroutedAt is the cycle the rerouting baseline reconfigured (0 if
	// it never did).
	ReroutedAt uint64

	// Recovery telemetry (RecoverOnConvict runs). RecoveredAt is the cycle
	// of the first conviction-driven reconfiguration (0 = never convicted);
	// RecoveredLinks lists every link disabled by recovery in conviction
	// order; AtRecover snapshots the counters at the first reconfiguration,
	// so post-recovery throughput is (Final-AtRecover) over the remaining
	// cycles. VictimAtRecover snapshots VictimDelivered at the same instant
	// — the victim's post-recovery goodput rate is the DoS-recovery measure
	// (whole-network throughput is bounded by the surviving topology's
	// capacity, the Figure 10 rerouting cost).
	RecoveredAt     uint64
	RecoveredLinks  []int
	AtRecover       noc.Counters
	VictimAtRecover uint64

	// VictimDelivered counts packets delivered to the attack target's
	// destination router during the measure phase — the victim
	// application's goodput (only tracked for Dest/DestSrc/Full targets).
	VictimDelivered uint64

	// FirstTrojanAt is the cycle the first link was classified as a
	// trojan (0 = never) — the detection latency measure.
	FirstTrojanAt uint64

	// Latency is the end-to-end packet latency distribution over the whole
	// run (both phases).
	Latency *stats.Histogram

	// Suspects is the final localization ranking (Locate runs only):
	// every link, most suspect first, with component scores.
	Suspects []locate.Suspect
	// SuspectsTelemetry is the same final ranking under TelemetryWeights —
	// localization from blocked-port telemetry and structure alone, with
	// the detector component zeroed (the ROADMAP's harder setting).
	SuspectsTelemetry []locate.Suspect
	// SuspectTrace records the rank-1 verdict at every telemetry sample
	// from attack enable onward — the time-to-localize series.
	SuspectTrace []locate.TraceSample
}

// flowMatcher returns the flow filter a target implies: the attacker places
// trojans on links its *target* flows actually cross (Section III-A). VC
// and Mem targets match flits of every flow, so no filter applies.
func flowMatcher(t tasp.Target) func(src, dst int) bool {
	switch t.Kind {
	case tasp.TargetDest:
		return func(_, dst int) bool { return dst == int(t.DstR) }
	case tasp.TargetSrc:
		return func(src, _ int) bool { return src == int(t.SrcR) }
	case tasp.TargetDestSrc, tasp.TargetFull:
		return func(src, dst int) bool { return src == int(t.SrcR) && dst == int(t.DstR) }
	default:
		return nil
	}
}

// ChooseInfectedLinks ranks the network's directed links by the analytic
// load of the flows the target matches over its default routes (Section
// III-A's link-selection analysis) and returns the ids of the n hottest
// ones that keep the network connected if disabled — the attacker wants
// maximum coverage, and the rerouting comparison needs a survivable
// topology. Connected means what reroute.Build needs to route around the
// disabled links: every router still reaches every other.
func ChooseInfectedLinks(m *traffic.Model, net *noc.Network, n int, target tasp.Target) []int {
	links := net.LinkSlice()
	loads := traffic.LinkLoadsWhere(m, net.DefaultRoute(), links, flowMatcher(target))
	type cand struct {
		id   int
		load float64
	}
	cands := make([]cand, 0, len(links))
	for _, l := range links {
		cands = append(cands, cand{l.ID, loads[l.ID]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load > cands[j].load
		}
		return cands[i].id < cands[j].id
	})
	var picked []int
	reach := reroute.NewReachability(net.Config(), links)
	disabled := make([]bool, len(links)) // by link id
	for _, c := range cands {
		if len(picked) == n {
			break
		}
		if c.load == 0 {
			break // target flows never cross the remaining links
		}
		disabled[c.id] = true
		if !reach.Connected(disabled) {
			disabled[c.id] = false // would disconnect the mesh; skip
			continue
		}
		picked = append(picked, c.id)
	}
	return picked
}

// Run executes one experiment on a fresh one-shot platform. It is a thin
// wrapper over the Runner execution engine (runner.go); sweeps that revisit
// the same network configuration should hold a Runner per worker and call
// RunInto to reuse the simulation arena across points.
func Run(cfg ExperimentConfig) (*Results, error) {
	return NewRunner().Run(cfg)
}
