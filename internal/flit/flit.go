// Package flit defines the packet and flit formats used throughout the NoC.
//
// A packet is a sequence of flits. The head flit carries the routing header;
// body and tail flits carry payload. Every flit is 64 data bits wide before
// link ECC encoding (the paper's routers use 64-bit buffer slots); the SECDED
// encoder in package ecc expands a flit to a 72-bit codeword for traversal.
//
// Where each header field sits inside those 64 bits is not fixed: it is
// described by a Layout, derived from the network configuration. Fields are
// packed least-significant bit first, in a fixed order:
//
//	type | vc | src router | dst router | mem | src core | dst core | seq | spare
//
// The core sub-identifiers sit outside the vc..mem span so that the paper's
// "full" comparator window (vc + src + dest + mem) is one contiguous run of
// bits, whatever the field widths.
//
// Default is the paper's own instance — 16 routers (4-bit ids), 4 cores per
// router (2-bit ids), 4 VCs (2-bit ids) — which reproduces the exact layout
// and TASP comparator widths of the paper: src 4, dest 4, dest+src 8, vc 2,
// mem 32, full 42 (bits 2..43). Larger substrates (an 8x8 mesh, concentration
// 8) widen the id fields and squeeze the spare bits instead of being
// unrepresentable.
package flit

import (
	"fmt"
	"math/bits"
)

// Type distinguishes the role of a flit within its packet.
type Type uint8

// Flit types. Single is a one-flit packet (head and tail at once).
const (
	Head Type = iota
	Body
	Tail
	Single
)

// String returns a short human-readable name for the flit type.
func (t Type) String() string {
	switch t {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case Single:
		return "single"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Fixed field widths: every layout spends 2 bits on the flit type, 32 on the
// memory address and 8 on the per-source sequence number. Only the id fields
// (router, core, vc) scale with the substrate.
const (
	typeBits = 2
	memBits  = 32
	seqBits  = 8

	// PayloadBits is the flit width the layouts pack into.
	PayloadBits = 64

	// MaxIDBits caps each id field: Header carries router, core and vc ids
	// as uint8, so no id field may exceed 8 bits (256 routers).
	MaxIDBits = 8
)

// Layout maps header fields to bit positions within the 64-bit head-flit
// payload. Construct with NewLayout or LayoutFor; the zero value is invalid.
// Layouts are immutable values and safe to copy and share.
type Layout struct {
	TypeShift, TypeBits       uint
	VCShift, VCBits           uint
	SrcShift, SrcBits         uint
	DstShift, DstBits         uint
	MemShift, MemBits         uint
	SrcCoreShift, SrcCoreBits uint
	DstCoreShift, DstCoreBits uint
	SeqShift, SeqBits         uint
	SpareShift, SpareBits     uint

	// FullShift/FullBits span the paper's "full" target window: the
	// contiguous vc + src + dst + mem run (42 bits at bits 2..43 in the
	// default layout).
	FullShift, FullBits uint
}

// BitsFor returns the number of bits needed to hold ids 0..n-1 (0 for n <= 1:
// a field with a single possible value needs no wires).
func BitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// NewLayout builds a layout from explicit id-field widths. routerBits must be
// 1..MaxIDBits; coreBits and vcBits 0..MaxIDBits. The packed fields must fit
// the 64-bit payload; whatever is left becomes spare bits.
func NewLayout(routerBits, coreBits, vcBits int) (Layout, error) {
	switch {
	case routerBits < 1 || routerBits > MaxIDBits:
		return Layout{}, fmt.Errorf("flit: router id width must be 1..%d bits, got %d", MaxIDBits, routerBits)
	case coreBits < 0 || coreBits > MaxIDBits:
		return Layout{}, fmt.Errorf("flit: core id width must be 0..%d bits, got %d", MaxIDBits, coreBits)
	case vcBits < 0 || vcBits > MaxIDBits:
		return Layout{}, fmt.Errorf("flit: vc id width must be 0..%d bits, got %d", MaxIDBits, vcBits)
	}
	var l Layout
	pos := uint(0)
	place := func(shift, width *uint, n uint) {
		*shift, *width = pos, n
		pos += n
	}
	place(&l.TypeShift, &l.TypeBits, typeBits)
	place(&l.VCShift, &l.VCBits, uint(vcBits))
	place(&l.SrcShift, &l.SrcBits, uint(routerBits))
	place(&l.DstShift, &l.DstBits, uint(routerBits))
	place(&l.MemShift, &l.MemBits, memBits)
	place(&l.SrcCoreShift, &l.SrcCoreBits, uint(coreBits))
	place(&l.DstCoreShift, &l.DstCoreBits, uint(coreBits))
	place(&l.SeqShift, &l.SeqBits, seqBits)
	if pos > PayloadBits {
		return Layout{}, fmt.Errorf("flit: layout needs %d bits but the flit payload is %d (router %db, core %db, vc %db)",
			pos, PayloadBits, routerBits, coreBits, vcBits)
	}
	place(&l.SpareShift, &l.SpareBits, PayloadBits-pos)
	l.FullShift = l.VCShift
	l.FullBits = l.VCBits + l.SrcBits + l.DstBits + l.MemBits
	return l, nil
}

// LayoutFor derives the layout a network configuration needs: router ids wide
// enough for the router count, core ids for the concentration, vc ids for the
// VC count. It errors when the configuration cannot be packed into a 64-bit
// flit (the layout-fit capacity check noc.Config.Validate builds on).
func LayoutFor(routers, concentration, vcs int) (Layout, error) {
	if routers < 2 {
		return Layout{}, fmt.Errorf("flit: need at least 2 routers, got %d", routers)
	}
	rb := BitsFor(routers)
	if rb > MaxIDBits {
		return Layout{}, fmt.Errorf("flit: %d routers need %d-bit ids; at most %d bits (%d routers) supported",
			routers, rb, MaxIDBits, 1<<MaxIDBits)
	}
	if concentration < 1 {
		return Layout{}, fmt.Errorf("flit: concentration must be at least 1, got %d", concentration)
	}
	if vcs < 1 {
		return Layout{}, fmt.Errorf("flit: need at least 1 VC, got %d", vcs)
	}
	return NewLayout(rb, BitsFor(concentration), BitsFor(vcs))
}

// Default is the paper's evaluation layout: 4-bit router ids (16 routers),
// 2-bit core ids (concentration 4), 2-bit vc ids (4 VCs). Its bit positions
// are the ones printed in the paper's Table I and assumed throughout the
// original fixed-format header.
var Default = mustLayout(NewLayout(4, 2, 2))

func mustLayout(l Layout, err error) Layout {
	if err != nil {
		panic(err)
	}
	return l
}

// HeaderBits returns the number of low payload bits that carry header fields
// (everything below the spare window) — the "header" granularity window the
// L-Ob obfuscation block narrows to.
func (l Layout) HeaderBits() int { return int(l.SpareShift) }

// String renders the field map compactly, e.g.
// "type[0:2) vc[2:4) src[4:8) dst[8:12) mem[12:44) srcC[44:46) dstC[46:48) seq[48:56) spare[56:64)".
func (l Layout) String() string {
	span := func(name string, shift, width uint) string {
		if width == 0 {
			return ""
		}
		return fmt.Sprintf("%s[%d:%d) ", name, shift, shift+width)
	}
	s := span("type", l.TypeShift, l.TypeBits) +
		span("vc", l.VCShift, l.VCBits) +
		span("src", l.SrcShift, l.SrcBits) +
		span("dst", l.DstShift, l.DstBits) +
		span("mem", l.MemShift, l.MemBits) +
		span("srcC", l.SrcCoreShift, l.SrcCoreBits) +
		span("dstC", l.DstCoreShift, l.DstCoreBits) +
		span("seq", l.SeqShift, l.SeqBits) +
		span("spare", l.SpareShift, l.SpareBits)
	if len(s) > 0 {
		s = s[:len(s)-1]
	}
	return s
}

// Header is the decoded routing header of a packet.
type Header struct {
	Kind  Type   // Head or Single for the leading flit
	VC    uint8  // virtual channel
	SrcR  uint8  // source router
	SrcC  uint8  // source core within the router
	DstR  uint8  // destination router
	DstC  uint8  // destination core within the router
	Mem   uint32 // memory address the request refers to
	Seq   uint8  // per-source packet sequence number
	Spare uint8  // spare bits, carried verbatim (truncated to the layout's spare width)
}

// mask returns an n-bit all-ones mask.
func mask(n uint) uint64 { return (uint64(1) << n) - 1 }

// Encode packs the header into a 64-bit flit payload under this layout.
func (l *Layout) Encode(h Header) uint64 {
	var w uint64
	w |= (uint64(h.Kind) & mask(l.TypeBits)) << l.TypeShift
	w |= (uint64(h.VC) & mask(l.VCBits)) << l.VCShift
	w |= (uint64(h.SrcR) & mask(l.SrcBits)) << l.SrcShift
	w |= (uint64(h.DstR) & mask(l.DstBits)) << l.DstShift
	w |= (uint64(h.Mem) & mask(l.MemBits)) << l.MemShift
	w |= (uint64(h.SrcC) & mask(l.SrcCoreBits)) << l.SrcCoreShift
	w |= (uint64(h.DstC) & mask(l.DstCoreBits)) << l.DstCoreShift
	w |= (uint64(h.Seq) & mask(l.SeqBits)) << l.SeqShift
	w |= (uint64(h.Spare) & mask(l.SpareBits)) << l.SpareShift
	return w
}

// Decode unpacks a 64-bit flit payload into a Header under this layout.
func (l *Layout) Decode(w uint64) Header {
	return Header{
		Kind:  Type((w >> l.TypeShift) & mask(l.TypeBits)),
		VC:    uint8((w >> l.VCShift) & mask(l.VCBits)),
		SrcR:  uint8((w >> l.SrcShift) & mask(l.SrcBits)),
		SrcC:  uint8((w >> l.SrcCoreShift) & mask(l.SrcCoreBits)),
		DstR:  uint8((w >> l.DstShift) & mask(l.DstBits)),
		DstC:  uint8((w >> l.DstCoreShift) & mask(l.DstCoreBits)),
		Mem:   uint32((w >> l.MemShift) & mask(l.MemBits)),
		Seq:   uint8((w >> l.SeqShift) & mask(l.SeqBits)),
		Spare: uint8((w >> l.SpareShift) & mask(l.SpareBits)),
	}
}

// VC extracts only the virtual-channel field of a header payload: the one
// field Decode would produce, without decoding the rest. The router
// pipeline reads single fields per flit, so it uses these extractors.
func (l *Layout) VC(w uint64) uint8 { return uint8((w >> l.VCShift) & mask(l.VCBits)) }

// SrcR extracts only the source-router field of a header payload.
func (l *Layout) SrcR(w uint64) uint8 { return uint8((w >> l.SrcShift) & mask(l.SrcBits)) }

// DstR extracts only the destination-router field of a header payload.
func (l *Layout) DstR(w uint64) uint8 { return uint8((w >> l.DstShift) & mask(l.DstBits)) }

// Flit is one 64-bit unit of a packet inside a router, before link encoding.
// The five byte-sized fields sit together at the end, so a Flit packs into
// 32 bytes with no padding between words; every buffer in the router
// pipeline holds flits by value, so the size is part of the hot path.
type Flit struct {
	Payload uint64 // raw 64-bit payload; for head flits this is Layout.Encode(hdr)
	// Bookkeeping (not on the wire): identity for stats and retransmission.
	PacketID uint64 // globally unique packet id assigned at injection
	InjectAt uint64 // cycle the packet was injected (latency accounting)
	Kind     Type
	Index    uint8 // position of this flit within its packet
	// SrcR, DstR and VC are the packet's routing header as the router that
	// last forwarded the flit routed it: the switch stamps them on every
	// flit it moves, so a body or tail flit, which carries no header, still
	// names its flow on the next link. Zero on a flit no router has
	// forwarded yet.
	SrcR, DstR, VC uint8
}

// Header decodes the routing header carried by a head or single flit under
// the given layout.
func (f *Flit) Header(l *Layout) Header { return l.Decode(f.Payload) }

// IsHead reports whether the flit leads a packet (Head or Single).
func (f *Flit) IsHead() bool { return f.Kind == Head || f.Kind == Single }

// IsTail reports whether the flit ends a packet (Tail or Single).
func (f *Flit) IsTail() bool { return f.Kind == Tail || f.Kind == Single }

// Packet is a whole message before flitisation.
type Packet struct {
	ID     uint64
	Hdr    Header
	Body   []uint64 // body payload words (may be empty for 1-flit packets)
	Inject uint64   // injection cycle
}

// NumFlits returns the number of flits the packet occupies on the wire.
func (p *Packet) NumFlits() int {
	if len(p.Body) == 0 {
		return 1
	}
	return 1 + len(p.Body)
}

// AppendFlits serialises the packet into its wire flits under the layout,
// appending them to out so hot injection paths reuse one scratch buffer. A
// packet with no body words becomes a lone Single flit; otherwise a Head
// flit followed by Body flits with the final one marked Tail.
func (p *Packet) AppendFlits(out []Flit, l *Layout) []Flit {
	n := p.NumFlits()
	if n == 1 {
		h := p.Hdr
		h.Kind = Single
		out = append(out, Flit{Kind: Single, Payload: l.Encode(h), PacketID: p.ID, Index: 0, InjectAt: p.Inject})
		return out
	}
	h := p.Hdr
	h.Kind = Head
	out = append(out, Flit{Kind: Head, Payload: l.Encode(h), PacketID: p.ID, Index: 0, InjectAt: p.Inject})
	for i, w := range p.Body {
		k := Body
		if i == len(p.Body)-1 {
			k = Tail
		}
		out = append(out, Flit{Kind: k, Payload: w, PacketID: p.ID, Index: uint8(i + 1), InjectAt: p.Inject})
	}
	return out
}

// String renders the header compactly for logs and test failures.
func (h Header) String() string {
	return fmt.Sprintf("%s vc%d %d.%d->%d.%d mem=%08x seq=%d",
		h.Kind, h.VC, h.SrcR, h.SrcC, h.DstR, h.DstC, h.Mem, h.Seq)
}
