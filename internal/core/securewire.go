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
// Tap, between the two, and the PlainWire's counters (Corrected, Dropped,
// Swallowed) count every traversal, mitigated or not.
//
// Per Figure 6/7 the escalation schedule over a flit's transmission
// attempts is: attempt 0 uses the flow's logged method if one is known
// (otherwise plain), attempt 1 is a plain retry (first fault might be
// transient), and from attempt 2 on the L-Ob methods are walked in
// escalation order.
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
	// Figure 11). Set it before the run starts: an unmitigated wire does
	// not latch flows, so turning mitigation on mid-packet would find no
	// flow for the packet's body flits.
	Mitigated bool
	// Escalation is the L-Ob method order walked from attempt 2 on (nil =
	// lob's default order). It belongs to the run, so concurrent runs with
	// different orders cannot interfere.
	Escalation []lob.Choice

	layout  flit.Layout
	windows *lob.Windows
	key     *lob.Keystream
	// flows is the L-Ob controller's flow latch, one slot per link VC: body
	// flits carry no header, so the flow is latched when the head passes.
	// The link's output port admits one packet per VC from VC allocation
	// until its tail crosses, so a VC's slot only ever serves one packet's
	// run of flits.
	flows []flowSlot

	// Counters of the mitigation hardware.
	Obfuscated  uint64 // traversals sent under an L-Ob method
	BISTScans   uint64 // scans triggered by the detector
	StallCycles uint64 // total undo penalty charged downstream
}

// flowSlot is one VC's latched flow: the packet whose head last passed on
// the VC and the flow it declared. live is false once the tail has passed.
type flowSlot struct {
	id   uint64
	key  lob.FlowKey
	live bool
}

// NewSecureWire builds a mitigated link around the given fault tap. The
// layout is the network's flit-header layout; both endpoints' hardware (the
// L-Ob granularity windows and the flow latcher) is generated from it.
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
		flows:     make([]flowSlot, l.MaxVCs()),
	}
}

// Reset returns the wire to its post-NewSecureWire state for a new run
// without allocating: the tap is replaced, the keystream rewound to keySeed,
// and the detector, method log, flow latch and counters cleared. The
// granularity windows are layout-derived and preserved — a wire belongs to
// one network (hence one layout) for its whole life, which is exactly the
// campaign arena's reuse pattern.
func (w *SecureWire) Reset(tap fault.Adversary, keySeed uint64) {
	if tap == nil {
		tap = fault.None
	}
	w.PlainWire = noc.PlainWire{Tap: tap}
	w.Detector.Reset()
	w.Log.Reset()
	w.Mitigated = true
	w.Escalation = nil
	w.key.Reseed(keySeed)
	clear(w.flows)
	w.Obfuscated, w.BISTScans, w.StallCycles = 0, 0, 0
}

// flowOf resolves the flow a flit belongs to, latching it from head flits.
// A body or tail of another packet than the one its VC latched reads as an
// unknown flow on that VC.
func (w *SecureWire) flowOf(f *flit.Flit, vc uint8) lob.FlowKey {
	slot := &w.flows[vc]
	if f.IsHead() {
		l := &w.layout
		k := lob.FlowKey{SrcR: l.SrcR(f.Payload), DstR: l.DstR(f.Payload), VC: l.VC(f.Payload)}
		if !f.IsTail() {
			*slot = flowSlot{id: f.PacketID, key: k, live: true}
		}
		return k
	}
	if slot.live && slot.id == f.PacketID {
		if f.IsTail() {
			slot.live = false
		}
		return slot.key
	}
	return lob.FlowKey{VC: vc}
}

// saveFlows appends the wire's flow latch to dst (the run-fork checkpoint).
func (w *SecureWire) saveFlows(dst []flowSlot) []flowSlot { return append(dst, w.flows...) }

// restoreFlows loads the wire's flow latch from the front of src, as
// saveFlows wrote it, and returns the rest of src.
func (w *SecureWire) restoreFlows(src []flowSlot) []flowSlot { return src[copy(w.flows, src):] }

// wireCounters is a wire's traversal counters, the embedded PlainWire's:
// after the enable cycle, the only state an unmitigated wire changes.
type wireCounters struct{ corrected, dropped, swallowed uint64 }

// counters returns the wire's traversal counters (the run-fork checkpoint).
func (w *SecureWire) counters() wireCounters {
	return wireCounters{w.Corrected, w.Dropped, w.Swallowed}
}

// setCounters loads traversal counters that counters returned.
func (w *SecureWire) setCounters(c wireCounters) {
	w.Corrected, w.Dropped, w.Swallowed = c.corrected, c.dropped, c.swallowed
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
	flow := w.flowOf(&f, vc)
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
		w.Swallowed++
		return f, noc.TxResult{OK: true, Swallowed: true}
	}
	if choice.Method != lob.None {
		cw = w.windows.Undo(cw, choice, key)
	}
	data, st, syn := ecc.Decode(cw)

	fk := detect.FlitKey{PacketID: f.PacketID, Index: f.Index}
	switch st {
	case ecc.Uncorrectable:
		w.Dropped++
		act := w.Detector.OnFault(fk, syn, choice)
		if act.RunBIST {
			w.BISTScans++
			w.Detector.SetBISTResult(bist.Scan(cycle, w.Tap))
		}
		if choice.Method != lob.None {
			// The logged/escalated method failed this flow.
			w.Log.Forget(flow)
		}
		return f, noc.TxResult{OK: false}
	case ecc.Corrected:
		w.Corrected++
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
