// Package lob implements the paper's L-Ob switch-to-switch link obfuscation
// block (Section IV-A, Figure 4). When the threat detector suspects a link
// trojan, the upstream L-Ob transforms the encoded codeword before link
// traversal so the trojan's comparator no longer sees its target bits; the
// downstream L-Ob undoes the transform before ECC decode, at a 1-2 cycle
// penalty. Methods can be applied to the whole flit, the header window or
// the payload window, which lets the detector narrow down where the
// trojan's trigger taps (Figure 4's method log).
//
// Every method is a bijection on the 72-bit codeword, so two trojan-injected
// flips remain two flips after the undo and SECDED still detects them; the
// point of obfuscation is not error protection but preventing the trigger
// from matching in the first place.
package lob

import (
	"fmt"

	"tasp/internal/ecc"
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// Method is one obfuscation transform.
type Method uint8

// The methods of Figure 4, plus None. Scramble XORs the wires with an
// LFSR keystream shared by the two link endpoints (the paper's flit-pair
// scrambling of Figure 7 is modelled as a synchronized keystream: the same
// trigger-avoidance, the same 2-cycle penalty, without needing a partner
// flit to be in the buffer). Invert complements the wires. Shuffle rotates
// the window. Reorder swaps the halves of the window (the flit-reordering
// method at wire granularity).
const (
	None Method = iota
	Scramble
	Invert
	Shuffle
	Reorder
)

// String names the method.
func (m Method) String() string {
	switch m {
	case None:
		return "none"
	case Scramble:
		return "scramble"
	case Invert:
		return "invert"
	case Shuffle:
		return "shuffle"
	case Reorder:
		return "reorder"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// Penalty returns the extra receiver cycles to undo the method (Figure 7:
// 1 cycle for invert/shuffle/reorder, 1-2 for scramble while the partner
// keystream word is produced).
func (m Method) Penalty() int {
	switch m {
	case None:
		return 0
	case Scramble:
		return 2
	default:
		return 1
	}
}

// Granularity selects which codeword window a method is applied to.
type Granularity uint8

// Granularities: the entire flit, only the header field window, or only the
// payload window (Section IV-A: "for the entire flit, header or payload").
const (
	WholeFlit Granularity = iota
	HeaderOnly
	PayloadOnly
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case WholeFlit:
		return "flit"
	case HeaderOnly:
		return "header"
	case PayloadOnly:
		return "payload"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}

// Choice is one (method, granularity) selection.
type Choice struct {
	Method Method
	Gran   Granularity
}

// String renders the choice.
func (c Choice) String() string { return c.Method.String() + "/" + c.Gran.String() }

// defaultEscalation is the sequence a secured link's attempt schedule
// walks through on consecutive failed retransmissions: whole-flit methods
// first (maximum coverage), then narrowed granularities that localise the
// trigger. It is never modified; a run that wants another order carries
// its own (see Escalate), so concurrent runs cannot see each other's order.
var defaultEscalation = [...]Choice{
	{Scramble, WholeFlit},
	{Invert, WholeFlit},
	{Shuffle, WholeFlit},
	{Reorder, WholeFlit},
	{Scramble, HeaderOnly},
	{Scramble, PayloadOnly},
	{Invert, HeaderOnly},
	{Invert, PayloadOnly},
}

// Windows precomputes, for one flit-header layout, the codeword positions
// each granularity covers. The header window is the codeword image of the
// layout's header span (type, vc, src, dst, mem, core ids, seq — everything
// below the spare field); the payload window is everything else including
// parity. Both L-Ob endpoints of a link must be built from the same layout
// or the undo will not invert the apply.
type Windows struct {
	headerPos  []int
	payloadPos []int
	wholePos   []int
}

// WindowsFor builds the granularity windows for a header layout. Every
// secured link builds its own, so the three windows share one exact-size
// backing array: the whole codeword, then the header positions, then the
// payload positions, each in ascending wire order.
func WindowsFor(l flit.Layout) *Windows {
	var isHeader [ecc.CodewordBits]bool
	for d := 0; d < l.HeaderBits(); d++ {
		isHeader[ecc.DataPosition(d)] = true
	}
	pos := make([]int, 0, 2*ecc.CodewordBits)
	for p := 0; p < ecc.CodewordBits; p++ {
		pos = append(pos, p)
	}
	for _, header := range []bool{true, false} {
		for p := 0; p < ecc.CodewordBits; p++ {
			if isHeader[p] == header {
				pos = append(pos, p)
			}
		}
	}
	w, h := ecc.CodewordBits, ecc.CodewordBits+l.HeaderBits()
	return &Windows{wholePos: pos[:w:w], headerPos: pos[w:h:h], payloadPos: pos[h:]}
}

// window returns the positions a granularity covers.
func (w *Windows) window(g Granularity) []int {
	switch g {
	case HeaderOnly:
		return w.headerPos
	case PayloadOnly:
		return w.payloadPos
	default:
		return w.wholePos
	}
}

// Keystream is the synchronized LFSR both ends of a secured link share. The
// upstream advances it per scrambled transmission; the downstream recreates
// the same words because attempts are acknowledged in lockstep.
type Keystream struct {
	rng *xrand.RNG
}

// NewKeystream seeds a link keystream.
func NewKeystream(seed uint64) *Keystream { return &Keystream{rng: xrand.New(seed)} }

// Reseed rewinds the keystream to the start of the stream a fresh
// NewKeystream(seed) would produce, in place. Both link endpoints must be
// reseeded together, exactly as they must be constructed together.
func (k *Keystream) Reseed(seed uint64) { k.rng.Seed(seed) }

// Next produces the next 72-bit keystream word.
func (k *Keystream) Next() ecc.Codeword {
	return ecc.Codeword{Lo: k.rng.Uint64(), Hi: uint8(k.rng.Uint64())}
}

// Apply transforms the codeword with the chosen method over the chosen
// window. key is consumed only by Scramble; pass the same word to Undo.
func (w *Windows) Apply(cw ecc.Codeword, c Choice, key ecc.Codeword) ecc.Codeword {
	pos := w.window(c.Gran)
	switch c.Method {
	case None:
		return cw
	case Invert:
		for _, p := range pos {
			cw = cw.Flip(p)
		}
		return cw
	case Scramble:
		for _, p := range pos {
			if key.Bit(p) == 1 {
				cw = cw.Flip(p)
			}
		}
		return cw
	case Shuffle:
		return permute(cw, pos, rotateIdx)
	case Reorder:
		return permute(cw, pos, swapHalvesIdx)
	default:
		return cw
	}
}

// Undo reverses Apply with the same choice and key.
func (w *Windows) Undo(cw ecc.Codeword, c Choice, key ecc.Codeword) ecc.Codeword {
	pos := w.window(c.Gran)
	switch c.Method {
	case Shuffle:
		return unpermute(cw, pos, rotateIdx)
	case Reorder:
		return unpermute(cw, pos, swapHalvesIdx)
	default:
		// Invert and Scramble are involutions.
		return w.Apply(cw, c, key)
	}
}

// shuffleRotate is the rotation distance of the Shuffle method.
const shuffleRotate = 13

// rotateIdx maps window index i to its destination index.
func rotateIdx(i, n int) int { return (i + shuffleRotate) % n }

// swapHalvesIdx swaps the two halves of the window.
func swapHalvesIdx(i, n int) int { return (i + n/2) % n }

// permute moves bit at window index i to window index f(i, n).
func permute(cw ecc.Codeword, pos []int, f func(i, n int) int) ecc.Codeword {
	n := len(pos)
	out := cw
	for i := 0; i < n; i++ {
		src := pos[i]
		dst := pos[f(i, n)]
		if cw.Bit(src) != out.Bit(dst) {
			out = out.Flip(dst)
		}
	}
	return out
}

// unpermute inverts permute with the same index map.
func unpermute(cw ecc.Codeword, pos []int, f func(i, n int) int) ecc.Codeword {
	n := len(pos)
	out := cw
	for i := 0; i < n; i++ {
		src := pos[f(i, n)]
		dst := pos[i]
		if cw.Bit(src) != out.Bit(dst) {
			out = out.Flip(dst)
		}
	}
	return out
}

// FlowKey identifies a traffic flow for the per-flow method log.
type FlowKey struct {
	SrcR, DstR, VC uint8
}

// MethodLog remembers, per flow, the obfuscation choice that got flits of
// that flow through a compromised link ("Once a obfuscation method
// succeeds, it is logged for future attempts" — Figure 7). It also supplies
// the escalation sequence for flits that keep failing.
type MethodLog struct {
	known map[FlowKey]Choice
}

// NewMethodLog returns an empty log.
func NewMethodLog() *MethodLog { return &MethodLog{known: map[FlowKey]Choice{}} }

// Lookup returns the logged choice for a flow, if any.
func (l *MethodLog) Lookup(k FlowKey) (Choice, bool) {
	c, ok := l.known[k]
	return c, ok
}

// Record stores a successful choice for a flow.
func (l *MethodLog) Record(k FlowKey, c Choice) { l.known[k] = c }

// Reset forgets every logged flow, returning the log to its post-NewMethodLog
// state without reallocating the table.
func (l *MethodLog) Reset() { clear(l.known) }

// Forget drops a logged choice (when it stops working, e.g. the trojan's
// trigger turned out to alias the obfuscated form too).
func (l *MethodLog) Forget(k FlowKey) { delete(l.known, k) }

// Escalate returns the n-th choice of an escalation order to try for a flit
// that has failed n plain transmissions (n starts at 0); a nil order is the
// default one. Past the end of the order it cycles with the keystream-based
// scramble, which re-randomises every attempt.
func Escalate(order []Choice, n int) Choice {
	if order == nil {
		order = defaultEscalation[:]
	}
	if n < len(order) {
		return order[n]
	}
	return Choice{Scramble, WholeFlit}
}
