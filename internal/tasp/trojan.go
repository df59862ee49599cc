package tasp

import (
	"fmt"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

// Kind selects a trojan family: the attack it mounts once the comparator
// sights the target. All families share the TASP trigger architecture
// (kill switch + deep-packet-inspection comparator, Figure 3); they differ
// in the strike payload.
type Kind uint8

// Trojan families.
const (
	// KindFlip is the paper's TASP payload: two simultaneous wire flips,
	// exactly what SECDED detects but cannot correct, forcing a
	// switch-to-switch retransmission per strike (the NACK-flood DoS).
	KindFlip Kind = iota
	// KindDrop swallows the matched head flit and forges the link ACK
	// (Prasad et al., arXiv:1908.00289): the sender retires the flit as
	// delivered, the packet is beheaded, and — with no NACK ever raised —
	// neither the retransmission machinery nor the fault-triggered threat
	// detector engages.
	KindDrop
	// KindMisroute rewrites the matched head's destination-router field and
	// re-encodes the codeword, so SECDED decodes clean and the packet sails
	// to the hijack router instead of its destination.
	KindMisroute
	// KindThrottle is the adaptive dropper (adaptive.go): the KindDrop
	// payload gated by a duty cycle tuned to sit under the secure-ack
	// monitor's consecutive-window conviction streak.
	KindThrottle
	// KindCollude is the colluding dropper set (adaptive.go): N trojan
	// links rotate the strike duty so no single link's ack gap grows often
	// enough to accumulate a streak.
	KindCollude
)

// String names the kind as the campaign/CLI knobs spell it.
func (k Kind) String() string {
	switch k {
	case KindFlip:
		return "flip"
	case KindDrop:
		return "drop"
	case KindMisroute:
		return "misroute"
	case KindThrottle:
		return "throttle"
	case KindCollude:
		return "collude"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind resolves a kind name; the empty string is the flip default so
// pre-existing specs and flags keep their meaning.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "flip":
		return KindFlip, nil
	case "drop":
		return KindDrop, nil
	case "misroute":
		return KindMisroute, nil
	case "throttle":
		return KindThrottle, nil
	case "collude":
		return KindCollude, nil
	default:
		return KindFlip, fmt.Errorf("unknown trojan kind %q (want flip, drop, misroute, throttle or collude)", s)
	}
}

// Trojan is the pluggable adversary contract every trojan family implements:
// the wire-boundary Strike plus the shared kill-switch/target FSM and the
// statistics the experiment layer aggregates. Every family embeds one
// trigger, which implements everything here but Kind and Strike, so HT
// (flip), Dropper (drop and throttle), Misrouter and ColludingDropper all
// satisfy it, which is what lets core.Runner memoize and wire any family
// through the same arena plumbing.
type Trojan interface {
	fault.Adversary
	SetKillSwitch(on bool)
	KillSwitch() bool
	State() State
	Target() Target
	Kind() Kind
	// Stats returns sighted targets and executed strikes (flips, drops or
	// rewrites, by family).
	Stats() (matches, strikes uint64)
	// Reset rewinds the FSM and counters to the post-construction state
	// without allocating (arena reuse).
	Reset()
	// Save returns the trojan's dynamic state as a value, and Restore puts
	// a saved state back on a trojan of the same family, target and
	// construction parameters (a run-fork checkpoint of armed trojans).
	Save() Snapshot
	Restore(Snapshot)
}

// Snapshot is a trojan's dynamic state: the trigger's kill switch, FSM
// state and statistics, plus the flip family's payload counter. Everything
// else a trojan holds — the compiled comparator, the hijack router, the
// duty cycle, a colluder's rotation role — is fixed at construction or
// deployment.
type Snapshot struct {
	killsw           bool
	state            State
	matches, strikes uint64
	payload          int // the flip family's payload state (pair index)
}

// trigger is the shared TASP trigger architecture: the externally driven
// kill switch, the compiled comparator taps and the Idle/Active/Attacking
// FSM, with the sighting and strike counts. Every trojan family embeds it
// and so shares its Stats, Reset, Save and Restore; the payload (what
// happens on a sighting) is the family's own Strike. The dynamic state is
// the embedded Snapshot, so saving, restoring and resetting it is one
// assignment.
type trigger struct {
	target Target
	taps   []wireTap
	Snapshot
}

func newTrigger(target Target, l flit.Layout) trigger {
	return trigger{target: target, taps: target.compile(l)}
}

// Target returns the programmed target.
func (t *trigger) Target() Target { return t.target }

// State returns the current FSM state.
func (t *trigger) State() State { return t.state }

// SetKillSwitch drives the external backdoor enable. Turning it off returns
// the trojan to Idle, hiding it from logic testing (Section III-B).
func (t *trigger) SetKillSwitch(on bool) {
	t.killsw = on
	if !on {
		t.state = Idle
	} else if t.state == Idle {
		t.state = Active
	}
}

// KillSwitch reports the current enable.
func (t *trigger) KillSwitch() bool { return t.killsw }

// Stats implements Trojan.
func (t *trigger) Stats() (matches, strikes uint64) { return t.matches, t.strikes }

// Reset implements Trojan: it disarms the trojan and rewinds the FSM, the
// counts and the payload counter. The compiled taps are a function of the
// target and layout alone and are preserved.
func (t *trigger) Reset() { t.Snapshot = Snapshot{} }

// Save implements Trojan.
func (t *trigger) Save() Snapshot { return t.Snapshot }

// Restore implements Trojan.
func (t *trigger) Restore(s Snapshot) { t.Snapshot = s }

// sighted reports whether an armed comparator matches this flit: the strike
// gate every family's payload sits behind. Only flits the control wires
// frame as header-carrying are inspected — body flits carry payload in the
// compared positions — and every tapped wire must carry its expected value.
func (t *trigger) sighted(cw ecc.Codeword, fr fault.Framing) bool {
	if !t.killsw || !fr.Head {
		return false
	}
	for _, tap := range t.taps {
		if cw.Bit(tap.pos) != tap.want {
			return false
		}
	}
	return true
}

// drop is the payload of every dropping family: count a sighting and,
// while onDuty, swallow the flit under a forged ACK; forward everything
// else untouched.
func (t *trigger) drop(cw ecc.Codeword, fr fault.Framing, onDuty bool) (ecc.Codeword, fault.Outcome) {
	if !t.sighted(cw, fr) {
		return cw, fault.Forward
	}
	t.matches++
	if !onDuty {
		return cw, fault.Forward
	}
	t.state = Attacking
	t.strikes++
	return cw, fault.Swallow
}

// Dropper is the packet-drop trojan: on a sighting it swallows the head
// flit and forges the link acknowledgment. The beheaded packet's body flits
// still traverse the link (the comparator only fires on header framing) and
// are discarded as orphans at the downstream buffer front. No NACK is ever
// raised, so the fault-triggered detector and L-Ob never engage — the
// secure-ack monitor (internal/detect.AckMonitor) is the counter. A
// KindDrop dropper strikes on every sighting; a KindThrottle one
// (NewThrottledDropper) only in the active span of its duty cycle.
type Dropper struct {
	trigger
	kind Kind
	// period and active are the duty cycle in cycles; period 0 is always
	// on duty.
	period, active uint64
}

// NewDropper constructs a drop trojan for the given target, with the
// comparator wired against the given header layout.
func NewDropper(target Target, l flit.Layout) *Dropper {
	return &Dropper{trigger: newTrigger(target, l), kind: KindDrop}
}

// Kind implements Trojan.
func (d *Dropper) Kind() Kind { return d.kind }

// Strike implements fault.Adversary: swallow matched heads while on duty.
func (d *Dropper) Strike(cycle uint64, cw ecc.Codeword, fr fault.Framing) (ecc.Codeword, fault.Outcome) {
	return d.drop(cw, fr, d.period == 0 || dutyOn(cycle, d.period, d.active))
}

// Misrouter is the misrouting trojan: on a sighting it decodes the
// codeword, rewrites the header's destination-router field to the hijack
// router, and re-encodes — a valid codeword, so the downstream SECDED sees
// nothing and the receiver's route computation obediently carries the
// packet to the wrong tile. Detection needs the receiving router to check
// route conformance (the arrival port must lie on the route function's path
// for the carried destination), which is what noc counts as
// RouteViolations.
type Misrouter struct {
	trigger
	layout flit.Layout
	hijack uint8
}

// NewMisrouter constructs a misroute trojan delivering matched packets to
// the hijack router instead of their destination.
func NewMisrouter(target Target, hijack uint8, l flit.Layout) *Misrouter {
	return &Misrouter{trigger: newTrigger(target, l), layout: l, hijack: hijack}
}

// Kind implements Trojan.
func (m *Misrouter) Kind() Kind { return KindMisroute }

// Strike implements fault.Adversary: rewrite the destination field of
// matched heads inside a valid re-encoded codeword.
func (m *Misrouter) Strike(_ uint64, cw ecc.Codeword, fr fault.Framing) (ecc.Codeword, fault.Outcome) {
	if !m.sighted(cw, fr) {
		return cw, fault.Forward
	}
	data, st, _ := ecc.Decode(cw)
	if st == ecc.Uncorrectable {
		// The word is already beyond use (a co-resident fault source struck
		// first); rewriting garbage would only help the defender.
		return cw, fault.Forward
	}
	m.state = Attacking
	m.matches++
	mask := (uint64(1)<<m.layout.DstBits - 1) << m.layout.DstShift
	data = data&^mask | (uint64(m.hijack) << m.layout.DstShift & mask)
	m.strikes++
	return ecc.Encode(data), fault.Forward
}

// Every family satisfies the pluggable contract.
var (
	_ Trojan = (*HT)(nil)
	_ Trojan = (*Dropper)(nil)
	_ Trojan = (*Misrouter)(nil)
	_ Trojan = (*ColludingDropper)(nil)
)
