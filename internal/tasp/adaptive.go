// Adaptive trojan families: droppers engineered against the defender's
// runtime detector rather than against SECDED. The secure-ack monitor
// (internal/detect.AckMonitor) convicts a dropper when the link's
// sent/received gap grows over DefaultMinGapWindows *consecutive* sampling
// windows, so a stealthy adversary has two obvious refinements, both from the
// refined/low-rate DoS regime of DL2Fence (arXiv:2403.13563):
//
//   - throttle: strike at a duty cycle tuned to the defender's sampling
//     period, so the gap grows in short bursts separated by quiet windows
//     and the consecutive-window streak never completes; or
//   - collude: spread the same strike budget across several trojan links
//     that take turns, so no single link's gap grows often enough to
//     accumulate a streak even though the victim flow bleeds continuously.
//
// Both families are caught by the monitor's cumulative-deficit channel (and,
// for collusion, the cross-link fused view) — see internal/detect/ack.go.
package tasp

import (
	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

// Duty-cycle defaults, tuned against the defender's default 25-cycle
// sampling window (core.ExperimentConfig.SampleEvery): one active window
// followed by one quiet window, so the streak detector reads
// grow/quiet/grow/quiet and never reaches DefaultMinGapWindows.
const (
	// DefaultDutyPeriod is the duty-cycle length in cycles (two default
	// sampling windows).
	DefaultDutyPeriod = 50
	// DefaultDutyActive is how many cycles of each period the trojan
	// strikes (one default sampling window).
	DefaultDutyActive = 25
)

// dutyOn reports whether a throttled trojan is in the active span of its
// duty cycle. The active span is cycles 1..active of each period (1-based,
// not 0-based) so it aligns with the defender's sampling windows, which
// cover cycles (k*w, (k+1)*w] — the sample is taken after the cycle runs.
// A 0-based span would leak exactly one strike cycle into every "quiet"
// window and hand the streak detector an unbroken run of growing windows.
func dutyOn(cycle, period, active uint64) bool {
	p := cycle % period
	return p >= 1 && p <= active
}

// NewThrottledDropper constructs the adaptive drop trojan: the Dropper
// payload (swallow the matched head, forge the link ACK) gated by a duty
// cycle, striking during cycles 1..active of every period. period/active
// <= 0 take the defaults tuned against the default sampling window, at
// which it drops half the victim's matched heads — still a heavy DoS —
// while the per-link ack-gap streak alternates grow/quiet and the stock
// consecutive-window detector stays at AckHealthy/AckSuspect forever.
func NewThrottledDropper(target Target, l flit.Layout, period, active int) *Dropper {
	if period <= 0 {
		period = DefaultDutyPeriod
	}
	if active <= 0 {
		active = DefaultDutyActive
	}
	if active > period {
		active = period
	}
	return &Dropper{
		trigger: newTrigger(target, l),
		kind:    KindThrottle,
		period:  uint64(period),
		active:  uint64(active),
	}
}

// Collusion coordinates a set of trojan links that take turns striking:
// time is cut into slices of Slice cycles and slice s belongs to link
// s mod n. Each member link's ack gap grows only during its own slices, so
// with Slice at most (DefaultMinGapWindows-1) sampling windows no member ever
// accumulates a conviction streak — while the victim flow is struck in
// every slice by someone. The rotation is a pure function of the cycle, so
// colluders need no runtime channel between them (a shared clock is all the
// hardware requires) and the schedule is deterministic.
type Collusion struct {
	// Slice is the duty-slot length in cycles.
	Slice uint64
}

// NewCollusion returns a coordinator with the given slice length (<= 0
// takes DefaultDutyPeriod: two default sampling windows per turn, one short
// of the default conviction streak).
func NewCollusion(slice int) *Collusion {
	if slice <= 0 {
		slice = DefaultDutyPeriod
	}
	return &Collusion{Slice: uint64(slice)}
}

// onDuty reports whether member idx of n is the striker for this cycle.
// The slice index is 1-based-aligned like dutyOn, for the same
// window-boundary reason.
func (c *Collusion) onDuty(cycle uint64, idx, n int) bool {
	if n <= 0 {
		return false
	}
	return int(((cycle+c.Slice-1)/c.Slice)%uint64(n)) == idx
}

// ColludingDropper is one member of a colluding drop set: the Dropper
// payload gated by the coordinator's rotation. Its role survives Reset;
// the deployer reassigns it per point.
type ColludingDropper struct {
	trigger
	coord  *Collusion
	idx, n int
}

// NewColludingDropper constructs one member of a colluding set. Its role
// (index and set size) is assigned with SetRole once the set is final.
func NewColludingDropper(target Target, l flit.Layout, coord *Collusion) *ColludingDropper {
	return &ColludingDropper{trigger: newTrigger(target, l), coord: coord}
}

// SetRole assigns the member's rotation slot: it strikes in slices where
// slice mod n == idx. The runner reassigns roles whenever the deployed set
// size changes (memoized trojan sets are sliced per point).
func (d *ColludingDropper) SetRole(idx, n int) { d.idx, d.n = idx, n }

// Kind implements Trojan.
func (d *ColludingDropper) Kind() Kind { return KindCollude }

// Strike implements fault.Adversary: swallow matched heads during the
// member's own slices. The coordinator needs no snapshot: its rotation is
// a pure function of the cycle.
func (d *ColludingDropper) Strike(cycle uint64, cw ecc.Codeword, fr fault.Framing) (ecc.Codeword, fault.Outcome) {
	return d.drop(cw, fr, d.coord.onDuty(cycle, d.idx, d.n))
}
