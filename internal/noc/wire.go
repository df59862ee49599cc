package noc

import (
	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

// TxResult is the outcome of one link-traversal attempt.
type TxResult struct {
	// OK is true when the receiver accepted the flit (clean or corrected
	// decode). False means the decode was uncorrectable: the flit was
	// dropped at the input and a NACK returns to the sender.
	OK bool
	// Corrected is true when the receiver's ECC corrected a single-bit
	// error in this traversal.
	Corrected bool
	// Stall is the number of extra cycles the delivered flit is held at
	// the receiver before becoming eligible for switch allocation — the
	// 1-3 cycle penalty of undoing L-Ob obfuscation (Figure 7).
	Stall int
	// Swallowed is true when an adversary consumed the flit in flight and
	// forged the ACK: the sender retires the flit as delivered (OK is true)
	// but nothing arrives downstream. The drop-trojan signature.
	Swallowed bool
}

// Wire carries one flit attempt across a physical link. Implementations own
// everything between the upstream retransmission buffer and the downstream
// input buffer: ECC encode, obfuscation, fault/trojan taps, ECC decode and
// threat detection. attempt counts prior tries of this same flit (0 on the
// first try), which is what lets secure wires escalate obfuscation methods
// per Figure 6.
type Wire interface {
	Transmit(cycle uint64, f flit.Flit, vc uint8, attempt int) (flit.Flit, TxResult)
}

// PlainWire is the baseline link: SECDED encode, pass through the adversary
// tap, SECDED decode. No obfuscation, no detection. On a clean link (no tap,
// or fault.None) the codec round trip is the identity and is skipped.
type PlainWire struct {
	// Tap decides the codeword's fate in flight; fault.None for a healthy
	// link.
	Tap fault.Adversary
	WireCounters
}

// WireCounters is a wire's traversal counters, its only dynamic state once
// the tap is fixed: a checkpoint of a run copies it per wire.
type WireCounters struct {
	// Corrected and Dropped count link-level ECC outcomes; Swallowed counts
	// flits an adversary consumed with a forged ACK.
	Corrected uint64
	Dropped   uint64
	Swallowed uint64
}

// NewPlainWire returns a healthy baseline wire.
func NewPlainWire() *PlainWire { return &PlainWire{Tap: fault.None} }

// Transmit implements Wire.
func (w *PlainWire) Transmit(cycle uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, TxResult) {
	if _, clean := w.Tap.(fault.Identity); clean || w.Tap == nil {
		return f, TxResult{OK: true}
	}
	cw, oc := w.Tap.Strike(cycle, ecc.Encode(f.Payload), fault.Framing{Head: f.IsHead(), Tail: f.IsTail()})
	if oc == fault.Swallow {
		w.Swallowed++
		return f, TxResult{OK: true, Swallowed: true}
	}
	data, st, _ := ecc.Decode(cw)
	switch st {
	case ecc.Uncorrectable:
		w.Dropped++
		return f, TxResult{OK: false}
	case ecc.Corrected:
		w.Corrected++
		f.Payload = data
		return f, TxResult{OK: true, Corrected: true}
	default:
		f.Payload = data
		return f, TxResult{OK: true}
	}
}

// perfectWire is used for router-to-NI ejection: no ECC, no faults, always
// delivers. The local "link" stays inside the trusted router tile.
type perfectWire struct{}

func (perfectWire) Transmit(_ uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, TxResult) {
	return f, TxResult{OK: true}
}
