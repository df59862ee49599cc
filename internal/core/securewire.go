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
// trojan — and any other fault source — sits in Tap, between the two.
//
// Per Figure 6/7 the escalation schedule over a flit's transmission
// attempts is: attempt 0 uses the flow's logged method if one is known
// (otherwise plain), attempt 1 is a plain retry (first fault might be
// transient), and from attempt 2 on the L-Ob methods are walked in
// escalation order.
//
// On a clean link (Tap is fault.None) a plain traversal skips the SECDED
// round trip: nothing can corrupt the codeword, and a clean codeword
// decodes to the word that was encoded, so the outcome is the clean-decode
// one. The detector and method-log bookkeeping of a mitigated link run as
// on any clean decode.
type SecureWire struct {
	// Tap is the physical fault source on the link (any trojan family,
	// transient, stuck-at or a chain). Never nil after NewSecureWire.
	Tap fault.Adversary
	// Detector is the downstream threat source detector.
	Detector *detect.Detector
	// Log is the upstream per-flow method log.
	Log *lob.MethodLog
	// Mitigated enables the detector/L-Ob path; when false the wire
	// behaves exactly like a PlainWire (used for the paper's
	// no-mitigation runs in Figure 11). Set it before the run starts: an
	// unmitigated wire does not latch flows, so turning mitigation on
	// mid-packet would find no flow for the packet's body flits.
	Mitigated bool
	// Escalation is the L-Ob method order walked from attempt 2 on (nil =
	// lob's default order). It belongs to the run, so concurrent runs with
	// different orders cannot interfere.
	Escalation []lob.Choice

	layout  flit.Layout
	windows *lob.Windows
	key     *lob.Keystream
	// packet flow bookkeeping: body flits carry no header, so the L-Ob
	// controller latches the flow when the head flit passes.
	flows map[uint64]lob.FlowKey

	// Counters.
	Corrected   uint64 // single-bit upsets fixed by SECDED
	Dropped     uint64 // uncorrectable traversals (NACKs)
	Swallowed   uint64 // flits an adversary consumed with a forged ACK
	Obfuscated  uint64 // traversals sent under an L-Ob method
	BISTScans   uint64 // scans triggered by the detector
	StallCycles uint64 // total undo penalty charged downstream
}

// NewSecureWire builds a mitigated link around the given fault tap. The
// layout is the network's flit-header layout; both endpoints' hardware (the
// L-Ob granularity windows and the flow latcher) is generated from it.
func NewSecureWire(tap fault.Adversary, keySeed uint64, l flit.Layout) *SecureWire {
	if tap == nil {
		tap = fault.None
	}
	return &SecureWire{
		Tap:       tap,
		Detector:  detect.New(0),
		Log:       lob.NewMethodLog(),
		Mitigated: true,
		layout:    l,
		windows:   lob.WindowsFor(l),
		key:       lob.NewKeystream(keySeed),
		flows:     map[uint64]lob.FlowKey{},
	}
}

// WithMitigation sets the Mitigated flag and returns the wire, for fluent
// construction of baseline (unprotected) links.
func (w *SecureWire) WithMitigation(on bool) *SecureWire {
	w.Mitigated = on
	return w
}

// Reset returns the wire to its post-NewSecureWire state for a new run
// without allocating: the tap is replaced, the keystream rewound to keySeed,
// and the detector, method log, flow latcher and counters cleared. The
// granularity windows are layout-derived and preserved — a wire belongs to
// one network (hence one layout) for its whole life, which is exactly the
// campaign arena's reuse pattern.
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
	clear(w.flows)
	w.Corrected, w.Dropped, w.Swallowed, w.Obfuscated = 0, 0, 0, 0
	w.BISTScans, w.StallCycles = 0, 0
}

// flowOf resolves the flow a flit belongs to, latching it from head flits.
func (w *SecureWire) flowOf(f *flit.Flit, vc uint8) lob.FlowKey {
	if f.IsHead() {
		l := &w.layout
		k := lob.FlowKey{SrcR: l.SrcR(f.Payload), DstR: l.DstR(f.Payload), VC: l.VC(f.Payload)}
		if !f.IsTail() {
			w.flows[f.PacketID] = k
		}
		return k
	}
	if k, ok := w.flows[f.PacketID]; ok {
		if f.IsTail() {
			delete(w.flows, f.PacketID)
		}
		return k
	}
	return lob.FlowKey{VC: vc}
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

// Transmit implements noc.Wire.
func (w *SecureWire) Transmit(cycle uint64, f flit.Flit, vc uint8, attempt int) (flit.Flit, noc.TxResult) {
	// Only a mitigated wire obfuscates, so only it needs the flow: choose and
	// the method log are the flow's sole readers.
	var flow lob.FlowKey
	var choice lob.Choice // the zero Choice is lob.None
	if w.Mitigated {
		flow = w.flowOf(&f, vc)
		choice = w.choose(flow, attempt)
	}
	fk := detect.FlitKey{PacketID: f.PacketID, Index: f.Index}
	if _, clean := w.Tap.(fault.Identity); clean && choice.Method == lob.None {
		if w.Mitigated {
			w.Detector.OnClean(fk, choice)
		}
		return f, noc.TxResult{OK: true}
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

	switch st {
	case ecc.Uncorrectable:
		w.Dropped++
		if w.Mitigated {
			act := w.Detector.OnFault(fk, syn, choice)
			if act.RunBIST {
				w.BISTScans++
				w.Detector.SetBISTResult(bist.Scan(cycle, w.Tap))
			}
			if choice.Method != lob.None {
				// The logged/escalated method failed this flow.
				w.Log.Forget(flow)
			}
		}
		return f, noc.TxResult{OK: false}
	case ecc.Corrected:
		w.Corrected++
	}

	f.Payload = data
	stall := 0
	if w.Mitigated {
		if choice.Method != lob.None {
			stall = choice.Method.Penalty()
			w.StallCycles += uint64(stall)
			w.Log.Record(flow, choice)
		}
		w.Detector.OnClean(fk, choice)
	}
	return f, noc.TxResult{OK: true, Corrected: st == ecc.Corrected, Stall: stall}
}

var _ noc.Wire = (*SecureWire)(nil)
