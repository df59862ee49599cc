// Package campaign is the declarative experiment layer over the core
// engine: scenario grids expanded from a spec, sharded across a pool of
// workers that each own a reusable simulation arena (core.Runner), streamed
// to JSONL with periodic checkpoints so a killed sweep resumes
// byte-identically, and aggregated into the same plain-text tables the
// hand-written harnesses render.
//
// Determinism contract: a grid's JSONL output is a pure function of the
// spec — the same bytes at any worker count, and across kill/resume.
package campaign

import (
	"fmt"
	"math"
	"strings"

	"tasp/internal/core"
	"tasp/internal/tasp"
)

// AttackSpec declares the trojan deployment for a scenario, in plain
// serialisable terms (kinds and numbers rather than core types).
type AttackSpec struct {
	// Kind selects the comparator target: "none" (attack disabled), "dest",
	// "src", "dest-src", "vc", "mem" or "full".
	Kind string `json:"kind"`
	// Dest/Src/VC parameterise the routing-field kinds (Dest doubles as the
	// victim router for "full"). The zero values target router 0 — the
	// primary core of most benchmarks, matching core.DefaultExperiment.
	Dest int `json:"dest,omitempty"`
	Src  int `json:"src,omitempty"`
	VC   int `json:"vc,omitempty"`
	// Mem/MemMask define the address window for "mem" and "full".
	Mem     uint32 `json:"mem,omitempty"`
	MemMask uint32 `json:"mem_mask,omitempty"`
	// NumLinks is how many optimally-placed links the attacker infects
	// (0 = the protocol default of 2).
	NumLinks int `json:"num_links,omitempty"`
	// Links explicitly lists the infected link ids, overriding the optimal
	// placement (and NumLinks). Empty = let the attacker place.
	Links []int `json:"links,omitempty"`
	// YBits is the trojan's payload-counter width (0 = tasp default).
	YBits int `json:"y_bits,omitempty"`
	// Mode selects the trojan family on the infected links: "flip" (or
	// empty — the TASP double-flip default), "drop", "misroute", "throttle"
	// (duty-cycled dropper) or "collude" (rotating dropper set).
	Mode string `json:"mode,omitempty"`
	// Hijack is the router misrouted packets are diverted to ("misroute"
	// mode only). Absent = auto-select the farthest router from the victim;
	// present selects that router, and 0 is a valid explicit choice (the
	// option-present semantics the -1 sentinel carries in core).
	Hijack *int `json:"hijack,omitempty"`
	// DutyPeriod/DutyActive tune the adaptive families ("throttle": strike
	// DutyActive cycles of every DutyPeriod; "collude": rotate in
	// DutyPeriod-cycle slices). 0 = tasp defaults.
	DutyPeriod int `json:"duty_period,omitempty"`
	DutyActive int `json:"duty_active,omitempty"`
}

// Name is the attack's identity in records and aggregation group keys:
// the kind, qualified by a non-default trojan family ("dest-drop") and then
// by every non-default deployment field in a fixed order
// ("dest-drop[links=1,3]", "dest-collude[num_links=3 duty_period=75]"), so
// every distinct entry of a grid aggregates separately. A disabled attack
// deploys nothing and is always "none".
//
//nocvet:allowalloc once per point, not per cycle; an unqualified flip attack (the allocation-gated sweep shape) returns its kind without allocating
func (a AttackSpec) Name() string {
	if a.Kind == "" || a.Kind == "none" {
		return "none"
	}
	name := a.Kind
	if a.Mode != "" && a.Mode != "flip" {
		name += "-" + a.Mode
	}
	var q []string
	for _, f := range [...]struct {
		key string
		v   int
	}{
		{"dest", a.Dest}, {"src", a.Src}, {"vc", a.VC}, {"mem", int(a.Mem)}, {"mem_mask", int(a.MemMask)},
		{"num_links", a.NumLinks}, {"y_bits", a.YBits}, {"duty_period", a.DutyPeriod}, {"duty_active", a.DutyActive},
	} {
		if f.v != 0 {
			q = append(q, fmt.Sprintf("%s=%d", f.key, f.v))
		}
	}
	if a.Hijack != nil {
		q = append(q, fmt.Sprintf("hijack=%d", *a.Hijack))
	}
	if len(a.Links) > 0 {
		q = append(q, "links="+strings.Trim(strings.Join(strings.Fields(fmt.Sprint(a.Links)), ","), "[]"))
	}
	if len(q) > 0 {
		name += "[" + strings.Join(q, " ") + "]"
	}
	return name
}

// target resolves the declared kind to a comparator target. Disabled
// attacks keep the dest target so the victim-goodput accounting (and hence
// the record bytes) match an enabled run's control arm exactly.
func (a AttackSpec) target() (tasp.Target, bool, error) {
	// The header fields are 8 bits wide: reject what a uint8 would wrap
	// before converting. The platform's own range is ExperimentConfig.Validate's.
	for _, f := range [...]struct {
		name string
		v    int
	}{{"dest", a.Dest}, {"src", a.Src}, {"vc", a.VC}} {
		if f.v < 0 || f.v > math.MaxUint8 {
			return tasp.Target{}, false, fmt.Errorf("attack.%s = %d does not fit a header id (0..255)", f.name, f.v) //nocvet:allowalloc error path aborts the sweep
		}
	}
	switch a.Kind {
	case "", "none":
		return tasp.ForDest(uint8(a.Dest)), false, nil
	case "dest":
		return tasp.ForDest(uint8(a.Dest)), true, nil
	case "src":
		return tasp.ForSrc(uint8(a.Src)), true, nil
	case "dest-src":
		return tasp.ForDestSrc(uint8(a.Src), uint8(a.Dest)), true, nil
	case "vc":
		return tasp.ForVC(uint8(a.VC)), true, nil
	case "mem":
		return tasp.ForMem(a.Mem, a.MemMask), true, nil
	case "full":
		return tasp.ForFull(uint8(a.Src), uint8(a.Dest), uint8(a.VC), a.Mem, a.MemMask), true, nil
	default:
		// Unreachable in a sweep: Spec.Validate lowers every point up front.
		return tasp.Target{}, false, fmt.Errorf("unknown attack kind %q (want none, dest, src, dest-src, vc, mem or full)", a.Kind) //nocvet:allowalloc error path aborts the sweep
	}
}

// Scenario is one declarative experiment point: everything a simulation run
// needs, in serialisable form. Config lowers it to the core engine's terms.
type Scenario struct {
	// Topology is the substrate name ("" = mesh); Width x Height routers.
	Topology string `json:"topology,omitempty"`
	Width    int    `json:"width,omitempty"`  // 0 = 4
	Height   int    `json:"height,omitempty"` // 0 = 4
	// Benchmark is the traffic model name.
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`
	// Warmup/Measure are the protocol phases in cycles (0 = paper's 1500).
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`

	Attack AttackSpec `json:"attack"`
	// Mitigation is the defence name (core.Mitigation.String; "" = none).
	Mitigation string `json:"mitigation,omitempty"`
	// Detector selects the secure-ack monitor: "deficit" (or "") is the
	// full monitor; "stock" disables its cumulative-deficit and fused
	// channels, leaving the streak-only detector the adaptive trojans are
	// tuned to evade. "stock" requires SecureAck.
	Detector string `json:"detector,omitempty"`
	// Locate enables the localization engine (per-point cost; off in sweeps
	// unless the sweep is about localization).
	Locate bool `json:"locate,omitempty"`
	// SecureAck enables secure-acknowledgment monitoring — the runtime
	// detector for the drop and misroute trojan families.
	SecureAck bool `json:"secure_ack,omitempty"`
	// Recover turns secure-ack conviction into runtime recovery: convicted
	// links are rerouted around mid-run. Requires SecureAck.
	Recover bool `json:"recover,omitempty"`
	// TransientBER adds background single-event upsets.
	TransientBER float64 `json:"transient_ber,omitempty"`
}

// Config lowers the scenario to a core experiment configuration. The
// defaults mirror core.DefaultExperiment, so a zero-valued scenario with
// just a benchmark runs the paper's standard protocol. Zero selects a
// dimension's or phase's default; a negative one is an error.
func (s Scenario) Config() (core.ExperimentConfig, error) {
	cfg := core.DefaultExperiment()
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"width", s.Width}, {"height", s.Height}, {"warmup", s.Warmup}, {"measure", s.Measure},
		{"num_links", s.Attack.NumLinks}, {"y_bits", s.Attack.YBits},
		{"duty_period", s.Attack.DutyPeriod}, {"duty_active", s.Attack.DutyActive},
	} {
		if f.v < 0 {
			return cfg, fmt.Errorf("%s = %d: must be positive, or 0 for the default", f.name, f.v) //nocvet:allowalloc error path aborts the sweep
		}
	}
	cfg.Noc.Topo = s.Topology
	if s.Width > 0 {
		cfg.Noc.Width = s.Width
	}
	if s.Height > 0 {
		cfg.Noc.Height = s.Height
	}
	if s.Benchmark != "" {
		cfg.Benchmark = s.Benchmark
	}
	cfg.Seed = s.Seed
	if s.Warmup > 0 {
		cfg.Warmup = s.Warmup
	}
	if s.Measure > 0 {
		cfg.Measure = s.Measure
	}
	target, enabled, err := s.Attack.target()
	if err != nil {
		return cfg, err
	}
	cfg.Attack.Enabled = enabled
	cfg.Attack.Target = target
	if s.Attack.NumLinks > 0 {
		cfg.Attack.NumLinks = s.Attack.NumLinks
	}
	if len(s.Attack.Links) > 0 {
		cfg.Attack.Links = s.Attack.Links
	}
	cfg.Attack.YBits = s.Attack.YBits
	kind, err := tasp.ParseKind(s.Attack.Mode)
	if err != nil {
		return cfg, err
	}
	cfg.Attack.Kind = kind
	if s.Attack.Hijack != nil {
		cfg.Attack.Hijack = *s.Attack.Hijack
	} // absent keeps the default's -1 auto-select sentinel
	cfg.Attack.DutyPeriod = s.Attack.DutyPeriod
	cfg.Attack.DutyActive = s.Attack.DutyActive
	if s.Mitigation != "" {
		m, err := core.ParseMitigation(s.Mitigation)
		if err != nil {
			return cfg, err
		}
		cfg.Mitigation = m
	}
	switch s.Detector {
	case "", "deficit":
	case "stock":
		if !s.SecureAck {
			return cfg, fmt.Errorf("detector %q requires secure_ack", s.Detector) //nocvet:allowalloc error path aborts the sweep
		}
		cfg.AckDeficitRatio = -1
	default:
		return cfg, fmt.Errorf("unknown detector %q (want deficit or stock)", s.Detector) //nocvet:allowalloc error path aborts the sweep
	}
	cfg.Locate = s.Locate
	cfg.SecureAck = s.SecureAck
	cfg.RecoverOnConvict = s.Recover
	cfg.TransientBER = s.TransientBER
	return cfg, nil
}
