package flit

import (
	"testing"
	"testing/quick"
)

// legacyEncode packs a header with the original fixed-format constants
// (type 0..1, vc 2..3, src 4..7, dst 8..11, mem 12..43, srcC 44..45,
// dstC 46..47, seq 48..55, spare 56..63). The Default layout must reproduce
// it bit for bit — that equivalence is the refactor's safety rail.
func legacyEncode(h Header) uint64 {
	var w uint64
	w |= (uint64(h.Kind) & 3) << 0
	w |= (uint64(h.VC) & 3) << 2
	w |= (uint64(h.SrcR) & 15) << 4
	w |= (uint64(h.DstR) & 15) << 8
	w |= (uint64(h.Mem) & 0xffffffff) << 12
	w |= (uint64(h.SrcC) & 3) << 44
	w |= (uint64(h.DstC) & 3) << 46
	w |= (uint64(h.Seq) & 255) << 48
	w |= (uint64(h.Spare) & 255) << 56
	return w
}

func TestDefaultLayoutMatchesLegacyConstants(t *testing.T) {
	l := Default
	want := []struct {
		name         string
		shift, width uint
		gotS, gotW   uint
	}{
		{"type", 0, 2, l.TypeShift, l.TypeBits},
		{"vc", 2, 2, l.VCShift, l.VCBits},
		{"src", 4, 4, l.SrcShift, l.SrcBits},
		{"dst", 8, 4, l.DstShift, l.DstBits},
		{"mem", 12, 32, l.MemShift, l.MemBits},
		{"srcCore", 44, 2, l.SrcCoreShift, l.SrcCoreBits},
		{"dstCore", 46, 2, l.DstCoreShift, l.DstCoreBits},
		{"seq", 48, 8, l.SeqShift, l.SeqBits},
		{"spare", 56, 8, l.SpareShift, l.SpareBits},
		{"full", 2, 42, l.FullShift, l.FullBits},
	}
	for _, f := range want {
		if f.gotS != f.shift || f.gotW != f.width {
			t.Errorf("%s: got [%d:%d), legacy [%d:%d)", f.name, f.gotS, f.gotS+f.gotW, f.shift, f.shift+f.width)
		}
	}
}

func TestDefaultEncodeMatchesLegacy(t *testing.T) {
	f := func(kind, vc, sr, sc, dr, dc, seq, spare uint8, mem uint32) bool {
		h := Header{
			Kind: Type(kind & 3), VC: vc, SrcR: sr, SrcC: sc, DstR: dr, DstC: dc,
			Mem: mem, Seq: seq, Spare: spare,
		}
		return Default.Encode(h) == legacyEncode(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutForDefaultPlatform(t *testing.T) {
	// The paper's platform (16 routers, concentration 4, 4 VCs) must derive
	// exactly the Default layout.
	l, err := LayoutFor(16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l != Default {
		t.Fatalf("LayoutFor(16,4,4) = %v, want Default %v", l, Default)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Kind: Head, VC: 3, SrcR: 12, SrcC: 1, DstR: 5, DstC: 3, Mem: 0xdeadbeef, Seq: 200, Spare: 0x5a}
	got := Default.Decode(Default.Encode(h))
	if got != h {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(kind, vc, sr, sc, dr, dc, seq, spare uint8, mem uint32) bool {
		h := Header{
			Kind:  Type(kind & 3),
			VC:    vc & 3,
			SrcR:  sr & 15,
			SrcC:  sc & 3,
			DstR:  dr & 15,
			DstC:  dc & 3,
			Mem:   mem,
			Seq:   seq,
			Spare: spare,
		}
		return Default.Decode(Default.Encode(h)) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderFieldIsolation(t *testing.T) {
	// Changing one field must not disturb any other encoded field.
	base := Header{Kind: Head, VC: 1, SrcR: 7, SrcC: 2, DstR: 9, DstC: 1, Mem: 0x12345678, Seq: 42, Spare: 3}
	mod := base
	mod.DstR = 14
	a, b := Default.Encode(base), Default.Encode(mod)
	diff := a ^ b
	dstWindow := mask(Default.DstBits) << Default.DstShift
	if diff&^dstWindow != 0 {
		t.Fatalf("changing DstR disturbed other bits: diff=%016x", diff)
	}
}

func TestFullWindowCoversRoutingFields(t *testing.T) {
	// The "full" comparator window must contain vc, src, dst and mem but not
	// type, seq, spare or the core ids, in every layout.
	for _, dims := range [][3]int{{16, 4, 4}, {64, 4, 4}, {64, 8, 8}, {256, 4, 4}, {4, 1, 2}} {
		l, err := LayoutFor(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatalf("LayoutFor(%v): %v", dims, err)
		}
		if l.FullShift != l.VCShift {
			t.Errorf("%v: full window must start at the VC field", dims)
		}
		end := l.FullShift + l.FullBits
		if l.MemShift+l.MemBits != end {
			t.Errorf("%v: full window must end with the memory field: end=%d mem end=%d", dims, end, l.MemShift+l.MemBits)
		}
		if l.FullBits != l.VCBits+l.SrcBits+l.DstBits+l.MemBits {
			t.Errorf("%v: full window width %d does not equal sum of routed fields", dims, l.FullBits)
		}
	}
}

func TestLayoutCapacity(t *testing.T) {
	cases := []struct {
		routers, conc, vcs       int
		wantErr                  bool
		maxRouters, maxConc, hdr int
	}{
		{16, 4, 4, false, 16, 4, 56},   // the paper's platform
		{64, 4, 4, false, 64, 4, 60},   // 8x8 mesh: 6-bit router ids
		{64, 8, 8, false, 64, 8, 63},   // concentration 8, 8 VCs
		{256, 4, 4, false, 256, 4, 64}, // 16x16 mesh: 8-bit ids, zero spare
		{256, 8, 4, true, 0, 0, 0},     // 2+2+8+8+32+3+3+8 = 66 > 64
		{512, 4, 4, true, 0, 0, 0},     // 9-bit router ids exceed uint8 header fields
		{1, 4, 4, true, 0, 0, 0},
		{16, 0, 4, true, 0, 0, 0},
		{16, 4, 0, true, 0, 0, 0},
	}
	for _, tc := range cases {
		l, err := LayoutFor(tc.routers, tc.conc, tc.vcs)
		if tc.wantErr {
			if err == nil {
				t.Errorf("LayoutFor(%d,%d,%d): expected error, got %v", tc.routers, tc.conc, tc.vcs, l)
			}
			continue
		}
		if err != nil {
			t.Errorf("LayoutFor(%d,%d,%d): %v", tc.routers, tc.conc, tc.vcs, err)
			continue
		}
		if l.MaxRouters() < tc.maxRouters || l.MaxConcentration() < tc.maxConc {
			t.Errorf("LayoutFor(%d,%d,%d): capacity %d routers x %d cores, want >= %d x %d",
				tc.routers, tc.conc, tc.vcs, l.MaxRouters(), l.MaxConcentration(), tc.maxRouters, tc.maxConc)
		}
		if l.HeaderBits() != tc.hdr {
			t.Errorf("LayoutFor(%d,%d,%d): header window %d bits, want %d", tc.routers, tc.conc, tc.vcs, l.HeaderBits(), tc.hdr)
		}
		if l.SeqShift+l.SeqBits+l.SpareBits != PayloadBits {
			t.Errorf("LayoutFor(%d,%d,%d): spare does not pad to %d bits", tc.routers, tc.conc, tc.vcs, PayloadBits)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 64: 6, 256: 8, 257: 9}
	for n, want := range cases {
		if got := BitsFor(n); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPacketFlitsSingle(t *testing.T) {
	p := Packet{ID: 9, Hdr: Header{SrcR: 1, DstR: 2, Seq: 7}, Inject: 100}
	fs := p.Flits(Default)
	if len(fs) != 1 {
		t.Fatalf("want 1 flit, got %d", len(fs))
	}
	f := fs[0]
	if f.Kind != Single || !f.IsHead() || !f.IsTail() {
		t.Fatalf("single flit has wrong kind: %v", f.Kind)
	}
	if f.Header(&Default).DstR != 2 || f.Header(&Default).Seq != 7 {
		t.Fatalf("header not carried: %v", f.Header(&Default))
	}
	if f.PacketID != 9 || f.InjectAt != 100 {
		t.Fatalf("bookkeeping not carried: %+v", f)
	}
}

func TestPacketFlitsMulti(t *testing.T) {
	p := Packet{ID: 3, Hdr: Header{SrcR: 4, DstR: 8}, Body: []uint64{10, 20, 30, 40}}
	fs := p.Flits(Default)
	if len(fs) != 5 {
		t.Fatalf("want 5 flits, got %d", len(fs))
	}
	if fs[0].Kind != Head {
		t.Fatalf("first flit must be head, got %v", fs[0].Kind)
	}
	for i := 1; i < 4; i++ {
		if fs[i].Kind != Body {
			t.Fatalf("flit %d must be body, got %v", i, fs[i].Kind)
		}
		if fs[i].Payload != uint64(i*10) {
			t.Fatalf("flit %d payload %d", i, fs[i].Payload)
		}
	}
	if fs[4].Kind != Tail || !fs[4].IsTail() {
		t.Fatalf("last flit must be tail, got %v", fs[4].Kind)
	}
	for i, f := range fs {
		if int(f.Index) != i {
			t.Fatalf("flit %d has index %d", i, f.Index)
		}
	}
	if p.NumFlits() != 5 {
		t.Fatalf("NumFlits = %d", p.NumFlits())
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{Head: "head", Body: "body", Tail: "tail", Single: "single"} {
		if ty.String() != want {
			t.Errorf("Type(%d).String() = %q want %q", ty, ty.String(), want)
		}
	}
}
