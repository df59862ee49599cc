// Package core assembles the paper's complete system: it wires TASP trojans,
// transient/permanent fault injectors, the threat detector, the L-Ob
// obfuscation block and BIST into the cycle-accurate NoC, implements the
// baselines the paper compares against (e2e obfuscation, TDM QoS,
// rerouting), and exposes the experiment engine every cmd, example and
// benchmark drives.
package core

import (
	"tasp/internal/bist"
	"tasp/internal/detect"
	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/lob"
	"tasp/internal/noc"
)

// SecureWire is a link whose two endpoints carry the paper's mitigation
// hardware: the upstream L-Ob block (method selection, per-flow method log,
// keystream) and the downstream threat source detector plus BIST hook. The
// trojan — and any other fault source — sits in the embedded PlainWire's
// Tap, between the two. The network books every traversal's outcome from
// its TxResult, mitigated or not.
//
// Per Figure 6/7 the escalation schedule over a flit's transmission
// attempts is: attempt 0 uses the flow's logged method if one is known
// (otherwise plain), attempt 1 is a plain retry (first fault might be
// transient), and from attempt 2 on the L-Ob methods are walked in
// escalation order. The schedule is the wire's alone: the detector
// classifies the link and asks for BIST, it does not pick methods.
type SecureWire struct {
	// PlainWire is the link itself. Its Tap is never nil after
	// NewSecureWire.
	noc.PlainWire
	// Detector is the downstream threat source detector.
	Detector *detect.Detector
	// Log is the upstream per-flow method log.
	Log *lob.MethodLog
	// Mitigated enables the detector/L-Ob path; when false every traversal
	// is the embedded PlainWire's (the paper's no-mitigation runs in
	// Figure 11). It may change at any cycle: every flit names its flow
	// (flowOf), so the wire holds no per-packet state.
	Mitigated bool
	// Escalation is the L-Ob method order walked from attempt 2 on (nil =
	// lob's default order). It belongs to the run, so concurrent runs with
	// different orders cannot interfere.
	Escalation []lob.Choice

	layout  flit.Layout
	windows *lob.Windows
	key     *lob.Keystream

	// Counters of the mitigation hardware.
	Obfuscated  uint64 // traversals sent under an L-Ob method
	BISTScans   uint64 // scans triggered by the detector
	StallCycles uint64 // total undo penalty charged downstream
}

// NewSecureWire builds a mitigated link around the given fault tap. The
// layout is the network's flit-header layout; both endpoints' hardware (the
// L-Ob granularity windows and the head decoder) is generated from it.
func NewSecureWire(tap fault.Adversary, keySeed uint64, l flit.Layout) *SecureWire {
	return newSecureWire(tap, keySeed, l, lob.WindowsFor(l))
}

// newSecureWire builds a mitigated link sharing the given granularity
// windows, which must be the layout's (lob.WindowsFor(l)). Windows are
// read-only after construction, so every wire of one network can share
// one set.
func newSecureWire(tap fault.Adversary, keySeed uint64, l flit.Layout, w *lob.Windows) *SecureWire {
	if tap == nil {
		tap = fault.None
	}
	return &SecureWire{
		PlainWire: noc.PlainWire{Tap: tap},
		Detector:  detect.New(0),
		Log:       lob.NewMethodLog(),
		Mitigated: true,
		layout:    l,
		windows:   w,
		key:       lob.NewKeystream(keySeed),
	}
}

// Reset returns the wire to its post-NewSecureWire state for a new run
// without allocating: the tap is replaced, the keystream rewound to keySeed,
// and the detector, method log and counters cleared. The granularity
// windows are layout-derived and preserved — a wire belongs to one network
// (hence one layout) for its whole life, which is exactly the campaign
// arena's reuse pattern.
func (w *SecureWire) Reset(tap fault.Adversary, keySeed uint64) {
	if tap == nil {
		tap = fault.None
	}
	w.Tap = tap
	w.Detector.Reset()
	w.Log.Reset()
	w.Mitigated = true
	w.Escalation = nil
	w.key.Reseed(keySeed)
	w.Obfuscated, w.BISTScans, w.StallCycles = 0, 0, 0
}

// flowOf resolves the flow a flit belongs to on the given attempt. A head
// declares its flow in its header. Body and tail flits carry no header, so
// they read the stamp the forwarding router put on them, its packet's
// header. The L-Ob controller releases a VC's flow on the tail's first
// attempt, so a retried tail reads as an unknown flow on its link VC.
func (w *SecureWire) flowOf(f *flit.Flit, vc uint8, attempt int) lob.FlowKey {
	switch {
	case f.IsHead():
		l := &w.layout
		return lob.FlowKey{SrcR: l.SrcR(f.Payload), DstR: l.DstR(f.Payload), VC: l.VC(f.Payload)}
	case f.IsTail() && attempt > 0:
		return lob.FlowKey{VC: vc}
	default:
		return lob.FlowKey{SrcR: f.SrcR, DstR: f.DstR, VC: f.VC}
	}
}

// choose picks the obfuscation for this attempt on a mitigated wire.
func (w *SecureWire) choose(flow lob.FlowKey, attempt int) lob.Choice {
	switch {
	case attempt == 0:
		if c, ok := w.Log.Lookup(flow); ok {
			return c
		}
		return lob.Choice{Method: lob.None}
	case attempt == 1:
		return lob.Choice{Method: lob.None}
	default:
		return lob.Escalate(w.Escalation, attempt-2)
	}
}

// Transmit implements noc.Wire. An unmitigated traversal is the embedded
// PlainWire's; a mitigated one runs the L-Ob method between the SECDED
// encoder and the tap, and feeds the outcome to the detector and the method
// log.
func (w *SecureWire) Transmit(cycle uint64, f flit.Flit, vc uint8, attempt int) (flit.Flit, noc.TxResult) {
	if !w.Mitigated {
		return w.PlainWire.Transmit(cycle, f, vc, attempt)
	}
	flow := w.flowOf(&f, vc, attempt)
	choice := w.choose(flow, attempt)
	if _, clean := w.Tap.(fault.Identity); clean && choice.Method == lob.None {
		// A plain attempt on a clean link cannot fail, and the detector
		// ignores clean plain traversals: it is PlainWire's.
		return w.PlainWire.Transmit(cycle, f, vc, attempt)
	}

	var key ecc.Codeword
	if choice.Method == lob.Scramble {
		key = w.key.Next()
	}
	cw := ecc.Encode(f.Payload)
	if choice.Method != lob.None {
		w.Obfuscated++
		cw = w.windows.Apply(cw, choice, key)
	}
	cw, oc := w.Tap.Strike(cycle, cw, fault.Framing{Head: f.IsHead(), Tail: f.IsTail()})
	if oc == fault.Swallow {
		// The adversary consumed the flit and forged the ACK. The detector
		// never sees a syndrome — no NACK, no fault event — which is exactly
		// why drop trojans need the secure-ack monitor, not this wire's
		// threat detector.
		return f, noc.TxResult{OK: true, Swallowed: true}
	}
	if choice.Method != lob.None {
		cw = w.windows.Undo(cw, choice, key)
	}
	data, st, _ := ecc.Decode(cw)

	fk := detect.FlitKey{PacketID: f.PacketID, Index: f.Index}
	if st == ecc.Uncorrectable {
		if w.Detector.OnFault(fk, choice) {
			w.BISTScans++
			w.Detector.SetBISTResult(bist.Scan(cycle, w.Tap))
		}
		if choice.Method != lob.None {
			// The logged/escalated method failed this flow.
			w.Log.Forget(flow)
		}
		return f, noc.TxResult{OK: false}
	}

	f.Payload = data
	stall := 0
	if choice.Method != lob.None {
		stall = choice.Method.Penalty()
		w.StallCycles += uint64(stall)
		w.Log.Record(flow, choice)
	}
	w.Detector.OnClean(fk, choice)
	return f, noc.TxResult{OK: true, Corrected: st == ecc.Corrected, Stall: stall}
}

var _ noc.Wire = (*SecureWire)(nil)
