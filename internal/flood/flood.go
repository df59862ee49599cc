// Package flood implements the flood-based denial-of-service threat model
// the paper positions TASP against (Section II, [12]): rogue threads on
// compromised cores inject traffic at the maximum rate the injection port
// sustains, aimed at a victim region, depleting bandwidth and buffers. It
// also implements the runtime latency auditor of [13] — the detection
// technique the paper argues is hard to tune because "several factors
// influence packet latency during normal operation".
//
// Unlike a TASP trojan, a flood attack needs no hardware modification, is
// highly visible (injection counters spike) and is bandwidth-bound: QoS
// and rate limiting mitigate it, while TASP slips under both by weaponising
// the retransmission protocol itself.
package flood

import (
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// Attack is a flood-based DoS configuration.
type Attack struct {
	// Cores lists the distinct compromised cores running rogue threads,
	// fixed after New.
	Cores []int
	// Victim is the router whose resources the flood targets.
	Victim int
	// Rate is the per-rogue-core injection probability per cycle (set
	// close to 1 for a full flood).
	Rate float64
	// Spray, when true, sprays packets uniformly instead of at the victim
	// (a bandwidth-depletion rather than endpoint-congestion flood).
	Spray bool
	// BodyFlits is the flood packet body size (big packets hold wormhole
	// resources longer).
	BodyFlits int

	EnableAt uint64 // cycle the rogue threads start

	rng *xrand.RNG
	seq []uint8 // seq[i] is the last sequence number Cores[i] used
	// pkt is the packet every draw is written into: inject must consume
	// it before returning, as noc.Network.Inject does by copying the flits.
	pkt flit.Packet
}

// New prepares a flood attack.
func New(cores []int, victim int, rate float64, seed uint64) *Attack {
	return &Attack{
		Cores:  append([]int(nil), cores...),
		Victim: victim,
		Rate:   rate,
		rng:    xrand.New(seed),
		seq:    make([]uint8, len(cores)),
	}
}

// Tick rolls the rogue threads for one cycle, injecting through the same
// function the legitimate generator uses. routers is the mesh router count
// (for spray mode). Every packet is drawn into one packet the attack owns,
// so inject must consume it before returning (noc.Network.Inject copies
// the flits); once its body has grown to BodyFlits, a tick allocates
// nothing.
func (a *Attack) Tick(cycle uint64, routers int, inject func(core int, p *flit.Packet) bool) {
	if cycle < a.EnableAt {
		return
	}
	for i, core := range a.Cores {
		if !a.rng.Bool(a.Rate) {
			continue
		}
		dst := a.Victim
		if a.Spray {
			dst = a.rng.Intn(routers)
		}
		a.seq[i]++
		p := &a.pkt
		*p = flit.Packet{Hdr: flit.Header{
			VC:   uint8(a.rng.Intn(4)),
			DstR: uint8(dst),
			DstC: uint8(a.rng.Intn(4)),
			Mem:  uint32(dst)<<24 | uint32(a.rng.Intn(1<<20)),
			Seq:  a.seq[i],
		}, Body: p.Body[:0]}
		for range a.BodyFlits {
			p.Body = append(p.Body, a.rng.Uint64())
		}
		inject(core, p)
	}
}

// LatencyAuditor is the runtime latency monitor of [13]: it learns a
// baseline end-to-end latency during a calibration window and raises an
// alarm when the recent average exceeds the baseline by a threshold
// factor. The paper's criticism — normal congestion also moves latency —
// is measurable here as the auditor's false-positive rate.
type LatencyAuditor struct {
	// Threshold is the alarm multiplier over the calibrated baseline.
	Threshold float64
	// Window is the EWMA weight denominator (larger = smoother).
	Window float64

	calibrating bool
	baseline    float64
	ewma        float64
	samples     uint64

	// Alarms counts threshold crossings; FirstAlarm is the sample index
	// of the first one (0 = never).
	Alarms     uint64
	FirstAlarm uint64
}

// NewLatencyAuditor returns an auditor in its calibration phase.
//
//nocvet:keep TestLatencyAuditorFalsePositives checks [13]'s false positives on benign congestion
func NewLatencyAuditor(threshold, window float64) *LatencyAuditor {
	if threshold <= 1 {
		threshold = 2
	}
	if window <= 1 {
		window = 64
	}
	return &LatencyAuditor{Threshold: threshold, Window: window, calibrating: true}
}

// EndCalibration freezes the learned baseline.
//
//nocvet:keep TestLatencyAuditorFalsePositives checks [13]'s false positives on benign congestion
func (a *LatencyAuditor) EndCalibration() {
	a.calibrating = false
	a.baseline = a.ewma
	if a.baseline == 0 {
		a.baseline = 1
	}
}

// Observe feeds one delivered packet's latency.
//
//nocvet:keep TestLatencyAuditorFalsePositives checks [13]'s false positives on benign congestion
func (a *LatencyAuditor) Observe(latency uint64) {
	a.samples++
	l := float64(latency)
	if a.ewma == 0 {
		a.ewma = l
	} else {
		a.ewma += (l - a.ewma) / a.Window
	}
	if a.calibrating {
		return
	}
	if a.ewma > a.baseline*a.Threshold {
		a.Alarms++
		if a.FirstAlarm == 0 {
			a.FirstAlarm = a.samples
		}
	}
}
