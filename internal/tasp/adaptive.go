// Adaptive trojan families: droppers engineered against the defender's
// runtime detector rather than against SECDED. The secure-ack monitor
// (internal/detect.AckMonitor) convicts a dropper when the link's
// sent/received gap grows over MinGapWindows *consecutive* sampling windows,
// so a stealthy adversary has two obvious refinements, both from the
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

// ThrottledDropper is the adaptive drop trojan: identical strike payload to
// Dropper (swallow the matched head, forge the link ACK) but gated by a duty
// cycle. At the default tuning it drops half the victim's matched heads —
// still a heavy DoS — while the per-link ack-gap streak alternates
// grow/quiet and the stock consecutive-window detector stays at
// AckHealthy/AckSuspect forever.
type ThrottledDropper struct {
	trigger
	// Period and Active define the duty cycle in cycles: the trojan strikes
	// during the first Active cycles of every Period.
	Period, Active uint64
	// Matches counts sighted targets (on- and off-duty); Drops counts
	// swallowed flits (on-duty sightings only).
	Matches uint64
	Drops   uint64
}

// NewThrottledDropper constructs a duty-cycled drop trojan. period/active
// <= 0 take the defaults tuned against the default sampling window.
func NewThrottledDropper(target Target, l flit.Layout, period, active int) *ThrottledDropper {
	if period <= 0 {
		period = DefaultDutyPeriod
	}
	if active <= 0 {
		active = DefaultDutyActive
	}
	if active > period {
		active = period
	}
	return &ThrottledDropper{
		trigger: newTrigger(target, l),
		Period:  uint64(period),
		Active:  uint64(active),
	}
}

// Kind implements Trojan.
func (d *ThrottledDropper) Kind() Kind { return KindThrottle }

// Stats implements Trojan.
func (d *ThrottledDropper) Stats() (uint64, uint64) { return d.Matches, d.Drops }

// Reset implements Trojan.
func (d *ThrottledDropper) Reset() {
	d.resetFSM()
	d.Matches, d.Drops = 0, 0
}

// Save implements Trojan.
func (d *ThrottledDropper) Save() Snapshot { return d.save(d.Matches, d.Drops) }

// Restore implements Trojan.
func (d *ThrottledDropper) Restore(s Snapshot) { d.Matches, d.Drops = d.restore(s) }

// Strike implements fault.Adversary: swallow matched heads while on duty,
// forward everything else (including off-duty sightings) untouched.
func (d *ThrottledDropper) Strike(cycle uint64, cw ecc.Codeword, fr fault.Framing) (ecc.Codeword, fault.Outcome) {
	if !d.sighted(cw, fr) {
		return cw, fault.Forward
	}
	d.Matches++
	if !dutyOn(cycle, d.Period, d.Active) {
		return cw, fault.Forward
	}
	d.state = Attacking
	d.Drops++
	return cw, fault.Swallow
}

// Collusion coordinates a set of trojan links that take turns striking:
// time is cut into slices of Slice cycles and slice s belongs to link
// s mod n. Each member link's ack gap grows only during its own slices, so
// with Slice at most (MinGapWindows-1) sampling windows no member ever
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
// payload gated by the coordinator's rotation.
type ColludingDropper struct {
	trigger
	coord *Collusion
	idx   int
	n     int
	// Matches counts sighted targets (on- and off-duty); Drops counts
	// swallowed flits (own-slice sightings only).
	Matches uint64
	Drops   uint64
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

// Role returns the member's rotation slot and the set size.
func (d *ColludingDropper) Role() (idx, n int) { return d.idx, d.n }

// Kind implements Trojan.
func (d *ColludingDropper) Kind() Kind { return KindCollude }

// Stats implements Trojan.
func (d *ColludingDropper) Stats() (uint64, uint64) { return d.Matches, d.Drops }

// Reset implements Trojan. The role survives: it is re-assigned by the
// deployer per point anyway.
func (d *ColludingDropper) Reset() {
	d.resetFSM()
	d.Matches, d.Drops = 0, 0
}

// Save implements Trojan. The coordinator needs no snapshot: its rotation
// is a pure function of the cycle.
func (d *ColludingDropper) Save() Snapshot { return d.save(d.Matches, d.Drops) }

// Restore implements Trojan.
func (d *ColludingDropper) Restore(s Snapshot) { d.Matches, d.Drops = d.restore(s) }

// Strike implements fault.Adversary: swallow matched heads during the
// member's own slices, forward everything else untouched.
func (d *ColludingDropper) Strike(cycle uint64, cw ecc.Codeword, fr fault.Framing) (ecc.Codeword, fault.Outcome) {
	if !d.sighted(cw, fr) {
		return cw, fault.Forward
	}
	d.Matches++
	if !d.coord.onDuty(cycle, d.idx, d.n) {
		return cw, fault.Forward
	}
	d.state = Attacking
	d.Drops++
	return cw, fault.Swallow
}

// The adaptive families satisfy the pluggable contract too.
var (
	_ Trojan = (*ThrottledDropper)(nil)
	_ Trojan = (*ColludingDropper)(nil)
)
