// Package fault models the ways faults and attacks occur on NoC links
// (paper Figure 2): transient single-event upsets, permanent stuck-at
// defects, and hardware-trojan-injected faults. Links expose a tap point on
// the physical 72-bit codeword; every fault source — including the trojan
// family in package tasp — implements the Adversary interface and decides
// the fate of the codeword in flight.
//
// Adversary is the one tap contract. Strike either forwards the word,
// possibly corrupted, for SECDED downstream to arbitrate, or swallows the
// flit outright — the drop-trojan class of Prasad et al. (arXiv:1908.00289),
// where the link forges the ACK and the flit simply never arrives, leaving
// SECDED nothing to see. The benign fault sources here always forward, so
// they compose with trojans in one Chain.
package fault

import (
	"tasp/internal/ecc"
	"tasp/internal/xrand"
)

// Framing carries the flit-type side band of a link. NoC links transport
// the head/tail indicators on dedicated control wires next to the data
// wires, so a link tap — benign or malicious — can frame packets without
// parsing payload bits. The TASP trojan uses it to qualify its deep packet
// inspection to header-carrying flits.
type Framing struct {
	Head bool // the flit opens a packet (head or single)
	Tail bool // the flit closes a packet (tail or single)
}

// Outcome is an adversary's decision about a traversing flit.
type Outcome uint8

// Strike outcomes.
const (
	// Forward delivers the (possibly mutated) codeword downstream — the
	// bit-flip attack class and every benign fault source.
	Forward Outcome = iota
	// Swallow consumes the flit in flight and forges the link-level ACK:
	// the sender retires the flit as delivered, the receiver never sees it,
	// and no NACK/retransmission machinery engages. The returned codeword
	// is ignored.
	Swallow
)

// Adversary is the full wire-boundary attack contract: it sees the codeword
// exactly as the upstream ECC encoder emitted it (after any L-Ob
// obfuscation) and decides its fate — forward it (mutated or not) or swallow
// it with a forged acknowledgment. cycle is the global simulation clock,
// letting fault sources model temporal behaviour; fr is the control-wire
// framing of the flit.
type Adversary interface {
	Strike(cycle uint64, w ecc.Codeword, fr Framing) (ecc.Codeword, Outcome)
}

// ForwardFunc adapts a word-mutating function to an Adversary that always
// forwards what the function returns.
type ForwardFunc func(cycle uint64, w ecc.Codeword, fr Framing) ecc.Codeword

// Strike implements Adversary: mutate and forward.
func (f ForwardFunc) Strike(cycle uint64, w ecc.Codeword, fr Framing) (ecc.Codeword, Outcome) {
	return f(cycle, w, fr), Forward
}

// Identity is the adversary of a healthy link: every codeword passes
// untouched. It is a comparable zero-size type, so a wire can recognise a
// clean link by its tap alone and skip the codec: a SECDED codeword that
// nothing corrupts decodes to exactly the word that was encoded.
type Identity struct{}

// Strike implements Adversary: forward unchanged.
func (Identity) Strike(_ uint64, w ecc.Codeword, _ Framing) (ecc.Codeword, Outcome) {
	return w, Forward
}

// None is the identity adversary used on healthy links.
var None = Identity{}

// Transient flips each wire independently with a (very small) per-traversal
// probability, modelling single-event upsets. With realistic rates almost
// all upsets are single-bit and silently corrected by SECDED.
type Transient struct {
	// BitErrorRate is the per-bit, per-traversal flip probability.
	BitErrorRate float64
	rng          *xrand.RNG
}

// NewTransient returns a transient fault source with the given per-bit
// error rate, deterministically seeded.
func NewTransient(ber float64, seed uint64) *Transient {
	return &Transient{BitErrorRate: ber, rng: xrand.New(seed)}
}

// Reset re-arms the fault source in place with a new rate and seed, producing
// the exact upset stream a fresh NewTransient(ber, seed) would (arena reuse
// across simulation runs).
func (t *Transient) Reset(ber float64, seed uint64) {
	t.BitErrorRate = ber
	t.rng.Seed(seed)
}

// Strike implements Adversary: upsets forward.
func (t *Transient) Strike(_ uint64, w ecc.Codeword, _ Framing) (ecc.Codeword, Outcome) {
	// Fast path: with rate p the chance of any flip in 72 bits is ~72p;
	// sample the count first to avoid 72 RNG draws per flit.
	if !t.rng.Bool(t.BitErrorRate * ecc.CodewordBits) {
		return w, Forward
	}
	w = w.Flip(t.rng.Intn(ecc.CodewordBits))
	// Rarely, a second upset hits the same traversal.
	if t.rng.Bool(t.BitErrorRate * ecc.CodewordBits) {
		w = w.Flip(t.rng.Intn(ecc.CodewordBits))
	}
	return w, Forward
}

// StuckAt models a permanent defect: the listed wires are stuck at fixed
// values regardless of the driven data. A single stuck wire manifests as a
// (correctable) error on roughly half of all traversals; BIST walking
// patterns expose it deterministically.
type StuckAt struct {
	// Wires maps codeword bit position -> stuck value (0 or 1).
	Wires map[int]uint
}

// NewStuckAt returns a permanent fault source with the given stuck wires.
//
//nocvet:keep ROADMAP item 4 adds it as a stuck-at spec axis; the BIST, detector and wire tests use it today
func NewStuckAt(wires map[int]uint) *StuckAt {
	cp := make(map[int]uint, len(wires))
	for p, v := range wires { //nocvet:orderfree builds a map keyed by the same bit position
		cp[p] = v & 1
	}
	return &StuckAt{Wires: cp}
}

// Strike implements Adversary: stuck wires forward.
func (s *StuckAt) Strike(_ uint64, w ecc.Codeword, _ Framing) (ecc.Codeword, Outcome) {
	for p, v := range s.Wires { //nocvet:orderfree independent single-bit flips commute
		if w.Bit(p) != v {
			w = w.Flip(p)
		}
	}
	return w, Forward
}

// Chain composes adversaries; the word passes through each in order. It lets
// a compromised link also suffer background transient noise. A Swallow ends
// the traversal immediately — a flit a trojan has consumed cannot suffer
// further upsets.
type Chain []Adversary

// Strike implements Adversary.
func (c Chain) Strike(cycle uint64, w ecc.Codeword, fr Framing) (ecc.Codeword, Outcome) {
	for _, in := range c {
		var oc Outcome
		if w, oc = in.Strike(cycle, w, fr); oc == Swallow {
			return w, Swallow
		}
	}
	return w, Forward
}
