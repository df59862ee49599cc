// Package tasp implements the paper's primary attack contribution: the
// target-activated sequential-payload (TASP) hardware trojan (Section III).
//
// A TASP trojan sits on one directed link between two routers, behind the
// upstream ECC encoder, and performs deep packet inspection on the physical
// 72-bit codeword. It has three components (Figure 3): a target comparator
// tapping a subset of the codeword wires, a Y-bit payload counter whose
// states select which two wires to flip, and an XOR tree that performs the
// flips. Two simultaneous flips are precisely what SECDED can detect but not
// correct, so every strike forces a switch-to-switch retransmission; the
// payload counter shifts the flip locations between strikes to disguise them
// as transient faults and dodge permanent-fault classification.
//
// Activation requires both an externally driven kill switch and a sighted
// target, giving the FSM three states: Idle (kill switch off), Active
// (armed, snooping) and Attacking (target seen, faults flowing).
package tasp

import (
	"fmt"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

// TargetKind selects which header fields the trojan's comparator taps
// (Table I's variants).
type TargetKind uint8

// Comparator variants, in the paper's order. The parenthesised widths are
// for the paper's default 4x4/concentration-4/4-VC header layout; on other
// layouts the routing-field variants widen with the id fields (WidthIn).
const (
	TargetFull    TargetKind = iota // vc + src + dest + mem (42 bits)
	TargetDest                      // destination router (4 bits)
	TargetSrc                       // source router (4 bits)
	TargetDestSrc                   // both routers (8 bits)
	TargetMem                       // memory address region (32 bits, masked)
	TargetVC                        // virtual channel (2 bits)
)

// String names the target kind as in Table I.
func (k TargetKind) String() string {
	switch k {
	case TargetFull:
		return "Full"
	case TargetDest:
		return "Dest"
	case TargetSrc:
		return "Src"
	case TargetDestSrc:
		return "Dest_Src"
	case TargetMem:
		return "Mem"
	case TargetVC:
		return "VC"
	default:
		return fmt.Sprintf("TargetKind(%d)", uint8(k))
	}
}

// Width returns the number of compared bits for the paper's hardware
// instance (Section V-A, Table I) — the default header layout. This is what
// the area/power model costs; use WidthIn for other layouts.
func (k TargetKind) Width() int { return k.WidthIn(flit.Default) }

// WidthIn returns the number of compared bits when the comparator is built
// against the given header layout: the routing-field variants scale with the
// layout's id widths, Full spans the layout's contiguous vc+src+dst+mem
// comparator window.
func (k TargetKind) WidthIn(l flit.Layout) int {
	switch k {
	case TargetFull:
		return int(l.FullBits)
	case TargetDest:
		return int(l.DstBits)
	case TargetSrc:
		return int(l.SrcBits)
	case TargetDestSrc:
		return int(l.SrcBits + l.DstBits)
	case TargetMem:
		return int(l.MemBits)
	case TargetVC:
		return int(l.VCBits)
	default:
		return 0
	}
}

// Target is the value programmed into the comparator.
type Target struct {
	Kind TargetKind
	// SrcR/DstR/VC are exact-match values for the routing-field variants.
	SrcR, DstR, VC uint8
	// VCMask restricts which VC bits are compared for the VC variant
	// (0 = compare both bits; the paper allows targets to be "ranges").
	VCMask uint8
	// Mem/MemMask define the address window for the Mem (and Full)
	// variants: a flit matches when mem&MemMask == Mem&MemMask.
	Mem, MemMask uint32
}

// ForDest returns a target that strikes packets heading to router dst.
func ForDest(dst uint8) Target { return Target{Kind: TargetDest, DstR: dst} }

// ForSrc returns a target that strikes packets originating at router src.
func ForSrc(src uint8) Target { return Target{Kind: TargetSrc, SrcR: src} }

// ForDestSrc returns a target matching one src->dst flow.
func ForDestSrc(src, dst uint8) Target {
	return Target{Kind: TargetDestSrc, SrcR: src, DstR: dst}
}

// ForVC returns a target that strikes one virtual channel.
func ForVC(vc uint8) Target { return Target{Kind: TargetVC, VC: vc} }

// ForVCRange returns a target that strikes every VC agreeing with vc on the
// bits set in mask — e.g. mask 0b10 strikes the upper (or lower) half of
// the VCs, a whole TDM domain.
func ForVCRange(vc, mask uint8) Target { return Target{Kind: TargetVC, VC: vc, VCMask: mask} }

// ForMem returns a target that strikes an address window.
func ForMem(base, mask uint32) Target {
	return Target{Kind: TargetMem, Mem: base, MemMask: mask}
}

// ForFull returns the full 42-bit target for a single flow.
func ForFull(src, dst, vc uint8, mem, mask uint32) Target {
	return Target{Kind: TargetFull, SrcR: src, DstR: dst, VC: vc, Mem: mem, MemMask: mask}
}

// wireTap is one tapped codeword wire and the value the comparator expects.
type wireTap struct {
	pos  int
	want uint
}

// compile lowers the target into codeword wire taps against one concrete
// header layout. The attacker knows both the header layout and the ECC
// layout, so logical header bits are translated to physical codeword
// positions via the ecc data-position map. Only head/single flits carry a
// header, so the type-field wires are tapped too (they qualify the match);
// a body flit whose corresponding payload bits happen to look like a
// matching head flit will falsely trigger the trojan — real collateral the
// paper's obfuscation analysis also acknowledges.
func (t Target) compile(l flit.Layout) []wireTap {
	var taps []wireTap
	field := func(shift, bits uint, val uint64) {
		for i := uint(0); i < bits; i++ {
			taps = append(taps, wireTap{
				pos:  ecc.DataPosition(int(shift + i)),
				want: uint(val>>i) & 1,
			})
		}
	}
	switch t.Kind {
	case TargetDest:
		field(l.DstShift, l.DstBits, uint64(t.DstR))
	case TargetSrc:
		field(l.SrcShift, l.SrcBits, uint64(t.SrcR))
	case TargetDestSrc:
		field(l.SrcShift, l.SrcBits, uint64(t.SrcR))
		field(l.DstShift, l.DstBits, uint64(t.DstR))
	case TargetVC:
		mask := t.VCMask
		if mask == 0 {
			mask = uint8((uint64(1) << l.VCBits) - 1)
		}
		for i := uint(0); i < l.VCBits; i++ {
			if mask>>i&1 == 0 {
				continue
			}
			taps = append(taps, wireTap{
				pos:  ecc.DataPosition(int(l.VCShift + i)),
				want: uint(t.VC>>i) & 1,
			})
		}
	case TargetMem:
		for i := uint(0); i < l.MemBits; i++ {
			if t.MemMask>>i&1 == 0 {
				continue
			}
			taps = append(taps, wireTap{
				pos:  ecc.DataPosition(int(l.MemShift + i)),
				want: uint(t.Mem>>i) & 1,
			})
		}
	case TargetFull:
		field(l.VCShift, l.VCBits, uint64(t.VC))
		field(l.SrcShift, l.SrcBits, uint64(t.SrcR))
		field(l.DstShift, l.DstBits, uint64(t.DstR))
		for i := uint(0); i < l.MemBits; i++ {
			if t.MemMask>>i&1 == 0 {
				continue
			}
			taps = append(taps, wireTap{
				pos:  ecc.DataPosition(int(l.MemShift + i)),
				want: uint(t.Mem>>i) & 1,
			})
		}
	}
	return taps
}

// State is the trojan FSM state (Figure 3).
type State uint8

// FSM states.
const (
	Idle      State = iota // kill switch off; dormant
	Active                 // armed; snooping for the target
	Attacking              // target sighted; injecting between payload states
)

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Attacking:
		return "attacking"
	default:
		return "state(?)"
	}
}

// HT is one TASP trojan instance — the flip family of the pluggable Trojan
// contract (trojan.go). It implements fault.Adversary so it can be attached
// to any link tap point. The zero value is not usable; construct with New.
type HT struct {
	trigger
	yBits   int
	wires   []int // the Y attackable wires the payload counter selects among
	plState int   // current payload state (pair index)

	// Matches counts sighted targets; Injections counts fault strikes.
	Matches    uint64
	Injections uint64
}

// DefaultPayloadBits is the reference Y (payload-counter width): 8 bits
// select among 8 attackable wires, giving 28 two-wire payload states.
const DefaultPayloadBits = 8

// New constructs a TASP trojan for the given target with a Y-bit payload
// counter (Y attackable wires, Y*(Y-1)/2 payload states). The comparator is
// wired against the given header layout — a trojan fabricated for one
// substrate taps different physical wires than one for another. Y must be
// at least 2.
func New(target Target, yBits int, l flit.Layout) *HT {
	if yBits < 2 {
		panic("tasp: payload counter needs at least 2 bits")
	}
	h := &HT{
		trigger: newTrigger(target, l),
		yBits:   yBits,
	}
	// Spread the Y attackable wires evenly across the codeword, skewed off
	// the tapped wires so injections don't mask the trojan's own trigger.
	for i := 0; i < yBits; i++ {
		h.wires = append(h.wires, (i*ecc.CodewordBits/yBits+3)%ecc.CodewordBits)
	}
	return h
}

// Reset disarms the trojan and rewinds its FSM, payload counter and strike
// counters to the post-New state without allocating. The compiled comparator
// taps and attackable-wire table are functions of the target and layout
// alone, so they are preserved — simulation arenas memoize one HT per
// (target, layout) and Reset it between scenario points.
func (h *HT) Reset() {
	h.resetFSM()
	h.plState = 0
	h.Matches, h.Injections = 0, 0
}

// Kind implements Trojan.
func (h *HT) Kind() Kind { return KindFlip }

// Stats implements Trojan.
func (h *HT) Stats() (uint64, uint64) { return h.Matches, h.Injections }

// Save implements Trojan.
func (h *HT) Save() Snapshot {
	s := h.save(h.Matches, h.Injections)
	s.payload = h.plState
	return s
}

// Restore implements Trojan.
func (h *HT) Restore(s Snapshot) {
	h.Matches, h.Injections = h.restore(s)
	h.plState = s.payload
}

// PayloadStates returns the number of distinct two-wire payload states.
func (h *HT) PayloadStates() int { return h.yBits * (h.yBits - 1) / 2 }

// payloadPair returns the two wires selected by the current payload state.
func (h *HT) payloadPair() (int, int) {
	// Enumerate unordered pairs (i, j) of the Y wires in a fixed sequence.
	s := h.plState
	for i := 0; i < h.yBits-1; i++ {
		n := h.yBits - 1 - i
		if s < n {
			return h.wires[i], h.wires[i+1+s]
		}
		s -= n
	}
	return h.wires[0], h.wires[1]
}

// Strike implements fault.Adversary: deep packet inspection on the codeword
// and, when armed and the target is sighted, a two-bit strike at the current
// payload state's wires, after which the payload counter advances ("the HT
// holds the payload state until the next fault injection"). Flips always
// forward — SECDED raising the NACK is the attack.
func (h *HT) Strike(_ uint64, cw ecc.Codeword, fr fault.Framing) (ecc.Codeword, fault.Outcome) {
	if !h.sighted(cw, fr) {
		return cw, fault.Forward
	}
	h.state = Attacking
	h.Matches++
	p1, p2 := h.payloadPair()
	cw = cw.Flip(p1).Flip(p2)
	h.plState = (h.plState + 1) % h.PayloadStates()
	h.Injections++
	return cw, fault.Forward
}
