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
// statistics the experiment layer aggregates. HT (flip), Dropper and
// Misrouter all satisfy it, which is what lets core.Runner memoize and wire
// any family through the same arena plumbing.
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

// Snapshot is a trojan's dynamic state: the kill switch, the FSM state, the
// flip family's payload counter and the statistics. Everything else a
// trojan holds — the compiled comparator, the hijack router, the duty cycle,
// a colluder's rotation role — is fixed at construction or deployment.
type Snapshot struct {
	killsw           bool
	state            State
	payload          int
	matches, strikes uint64
}

// trigger is the shared TASP trigger architecture: the externally driven
// kill switch, the compiled comparator taps and the Idle/Active/Attacking
// FSM. Every trojan family embeds it; the payload (what happens on a
// sighting) is the family's own.
type trigger struct {
	target Target
	taps   []wireTap
	killsw bool
	state  State
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

// save snapshots the trigger's state with the family's statistics.
func (t *trigger) save(matches, strikes uint64) Snapshot {
	return Snapshot{killsw: t.killsw, state: t.state, matches: matches, strikes: strikes}
}

// restore puts a snapshot's trigger state back and returns its statistics.
func (t *trigger) restore(s Snapshot) (matches, strikes uint64) {
	t.killsw, t.state = s.killsw, s.state
	return s.matches, s.strikes
}

// resetFSM disarms and rewinds the FSM (the compiled taps are a function of
// the target and layout alone and are preserved).
func (t *trigger) resetFSM() {
	t.killsw = false
	t.state = Idle
}

// matches runs the comparator over the codeword: every tapped wire must
// carry its expected value. Head qualification happens on the link's
// control wires (Framing), not in the payload.
func (t *trigger) matches(cw ecc.Codeword) bool {
	for _, tap := range t.taps {
		if cw.Bit(tap.pos) != tap.want {
			return false
		}
	}
	return true
}

// sighted reports whether an armed comparator matches this flit: the strike
// gate every family's payload sits behind. Only flits the control wires
// frame as header-carrying are inspected — body flits carry payload in the
// compared positions.
func (t *trigger) sighted(cw ecc.Codeword, fr fault.Framing) bool {
	return t.killsw && fr.Head && t.matches(cw)
}

// Dropper is the packet-drop trojan: on a sighting it swallows the head
// flit and forges the link acknowledgment. The beheaded packet's body flits
// still traverse the link (the comparator only fires on header framing) and
// are discarded as orphans at the downstream buffer front. No NACK is ever
// raised, so the fault-triggered detector and L-Ob never engage — the
// secure-ack monitor (internal/detect.AckMonitor) is the counter.
type Dropper struct {
	trigger
	// Matches counts sighted targets; Drops counts swallowed flits (always
	// equal for this family — every sighting drops).
	Matches uint64
	Drops   uint64
}

// NewDropper constructs a drop trojan for the given target, with the
// comparator wired against the given header layout.
func NewDropper(target Target, l flit.Layout) *Dropper {
	return &Dropper{trigger: newTrigger(target, l)}
}

// Kind implements Trojan.
func (d *Dropper) Kind() Kind { return KindDrop }

// Stats implements Trojan.
func (d *Dropper) Stats() (uint64, uint64) { return d.Matches, d.Drops }

// Reset implements Trojan.
func (d *Dropper) Reset() {
	d.resetFSM()
	d.Matches, d.Drops = 0, 0
}

// Save implements Trojan.
func (d *Dropper) Save() Snapshot { return d.save(d.Matches, d.Drops) }

// Restore implements Trojan.
func (d *Dropper) Restore(s Snapshot) { d.Matches, d.Drops = d.restore(s) }

// Strike implements fault.Adversary: swallow matched heads, forward
// everything else untouched.
func (d *Dropper) Strike(_ uint64, cw ecc.Codeword, fr fault.Framing) (ecc.Codeword, fault.Outcome) {
	if !d.sighted(cw, fr) {
		return cw, fault.Forward
	}
	d.state = Attacking
	d.Matches++
	d.Drops++
	return cw, fault.Swallow
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
	// Matches counts sighted targets; Rewrites counts re-encoded headers.
	Matches  uint64
	Rewrites uint64
}

// NewMisrouter constructs a misroute trojan delivering matched packets to
// the hijack router instead of their destination.
func NewMisrouter(target Target, hijack uint8, l flit.Layout) *Misrouter {
	return &Misrouter{trigger: newTrigger(target, l), layout: l, hijack: hijack}
}

// Hijack returns the programmed hijack router.
func (m *Misrouter) Hijack() uint8 { return m.hijack }

// Kind implements Trojan.
func (m *Misrouter) Kind() Kind { return KindMisroute }

// Stats implements Trojan.
func (m *Misrouter) Stats() (uint64, uint64) { return m.Matches, m.Rewrites }

// Reset implements Trojan.
func (m *Misrouter) Reset() {
	m.resetFSM()
	m.Matches, m.Rewrites = 0, 0
}

// Save implements Trojan.
func (m *Misrouter) Save() Snapshot { return m.save(m.Matches, m.Rewrites) }

// Restore implements Trojan.
func (m *Misrouter) Restore(s Snapshot) { m.Matches, m.Rewrites = m.restore(s) }

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
	m.Matches++
	mask := (uint64(1)<<m.layout.DstBits - 1) << m.layout.DstShift
	data = data&^mask | (uint64(m.hijack) << m.layout.DstShift & mask)
	m.Rewrites++
	return ecc.Encode(data), fault.Forward
}

// The three families all satisfy the pluggable contract.
var (
	_ Trojan = (*HT)(nil)
	_ Trojan = (*Dropper)(nil)
	_ Trojan = (*Misrouter)(nil)
)
