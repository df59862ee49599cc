package flit

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// clamp masks a header's fields down to what the layout can carry, so a
// round-trip comparison is meaningful.
func (l Layout) clamp(h Header) Header {
	h.Kind = Type(uint64(h.Kind) & mask(l.TypeBits))
	h.VC = uint8(uint64(h.VC) & mask(l.VCBits))
	h.SrcR = uint8(uint64(h.SrcR) & mask(l.SrcBits))
	h.DstR = uint8(uint64(h.DstR) & mask(l.DstBits))
	h.SrcC = uint8(uint64(h.SrcC) & mask(l.SrcCoreBits))
	h.DstC = uint8(uint64(h.DstC) & mask(l.DstCoreBits))
	h.Mem = uint32(uint64(h.Mem) & mask(l.MemBits))
	h.Seq = uint8(uint64(h.Seq) & mask(l.SeqBits))
	h.Spare = uint8(uint64(h.Spare) & mask(l.SpareBits))
	return h
}

// FuzzHeaderRoundTrip fuzzes Encode/Decode across randomized layouts
// (router bits 2..6, core bits 0..3, vc bits 0..3): every clamped header
// must round-trip exactly, and rewriting one field must not disturb the
// encoded bits of any other field.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(2), uint8(0), uint8(3), uint8(12), uint8(1), uint8(5), uint8(3), uint32(0xdeadbeef), uint8(200), uint8(0x5a))
	f.Add(uint8(6), uint8(0), uint8(3), uint8(3), uint8(7), uint8(63), uint8(0), uint8(42), uint8(0), uint32(1)<<31, uint8(0), uint8(255))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(1), uint8(0), uint8(2), uint8(7), uint8(1), uint8(6), uint32(0), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, rb, cb, vb, kind, vc, sr, sc, dr uint8, dc uint8, mem uint32, seq, spare uint8) {
		routerBits := 2 + int(rb%5) // 2..6
		coreBits := int(cb % 4)     // 0..3
		vcBits := int(vb % 4)       // 0..3
		l, err := NewLayout(routerBits, coreBits, vcBits)
		if err != nil {
			t.Fatalf("NewLayout(%d,%d,%d): %v", routerBits, coreBits, vcBits, err)
		}
		h := l.clamp(Header{
			Kind: Type(kind), VC: vc, SrcR: sr, SrcC: sc, DstR: dr, DstC: dc,
			Mem: mem, Seq: seq, Spare: spare,
		})
		w := l.Encode(h)
		got := l.Decode(w)
		if got != h {
			t.Fatalf("layout %v: round trip mismatch:\n got %+v\nwant %+v", l, got, h)
		}
		// Field isolation: flipping DstR touches only the dst window.
		mod := h
		mod.DstR = uint8(uint64(^h.DstR) & mask(l.DstBits))
		diff := w ^ l.Encode(mod)
		if window := mask(l.DstBits) << l.DstShift; diff&^window != 0 {
			t.Fatalf("layout %v: changing DstR disturbed bits outside [%d:%d): diff=%016x",
				l, l.DstShift, l.DstShift+l.DstBits, diff)
		}
		// The default layout must keep matching the legacy constants.
		if l == Default {
			if le := legacyEncode(h); w != le {
				t.Fatalf("default layout diverged from legacy encoding: %016x != %016x", w, le)
			}
		}
	})
}

// TestHeaderRoundTripAcrossLayouts is the quick.Check property-test twin of
// the fuzz target, so the invariant is exercised on every plain `go test`
// run, not only when fuzzing.
func TestHeaderRoundTripAcrossLayouts(t *testing.T) {
	f := func(rb, cb, vb, kind, vc, sr, sc, dr, dc, seq, spare uint8, mem uint32) bool {
		l, err := NewLayout(2+int(rb%5), int(cb%4), int(vb%4))
		if err != nil {
			return false
		}
		h := l.clamp(Header{
			Kind: Type(kind), VC: vc, SrcR: sr, SrcC: sc, DstR: dr, DstC: dc,
			Mem: mem, Seq: seq, Spare: spare,
		})
		return l.Decode(l.Encode(h)) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestFieldExtractorsMatchDecode checks the one-field extractors the router
// pipeline uses against a full Decode, for arbitrary payload words across
// randomized layouts (router bits 1..8, core and vc bits 0..3; layouts that
// do not fit 64 bits are skipped).
func TestFieldExtractorsMatchDecode(t *testing.T) {
	f := func(rb, cb, vb uint8, w uint64) bool {
		l, err := NewLayout(1+int(rb%8), int(cb%4), int(vb%4))
		if err != nil {
			return true
		}
		h := l.Decode(w)
		return l.VC(w) == h.VC && l.SrcR(w) == h.SrcR && l.DstR(w) == h.DstR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestFlitSize pins Flit at four words: router buffers, retransmission
// entries and NI queues all hold flits by value, so padding between the
// byte-sized fields would cost memory traffic on every hop.
func TestFlitSize(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Flit{}) = %d, want 32", got)
	}
}

// TestFieldIsolationAcrossLayouts rewrites each field independently and
// asserts the encoded difference stays inside that field's bit window.
func TestFieldIsolationAcrossLayouts(t *testing.T) {
	layouts := []struct{ rb, cb, vb int }{{4, 2, 2}, {6, 2, 2}, {6, 3, 3}, {8, 0, 2}, {2, 0, 0}, {5, 1, 3}}
	base := Header{Kind: Head, VC: 0xff, SrcR: 0xff, SrcC: 0xff, DstR: 0xff, DstC: 0xff, Mem: 0xffffffff, Seq: 0xff, Spare: 0xff}
	for _, d := range layouts {
		l, err := NewLayout(d.rb, d.cb, d.vb)
		if err != nil {
			t.Fatalf("NewLayout(%v): %v", d, err)
		}
		h := l.clamp(base)
		w := l.Encode(h)
		muts := []struct {
			name         string
			mut          func(Header) Header
			shift, width uint
		}{
			{"vc", func(h Header) Header { h.VC = 0; return h }, l.VCShift, l.VCBits},
			{"src", func(h Header) Header { h.SrcR = 0; return h }, l.SrcShift, l.SrcBits},
			{"dst", func(h Header) Header { h.DstR = 0; return h }, l.DstShift, l.DstBits},
			{"mem", func(h Header) Header { h.Mem = 0; return h }, l.MemShift, l.MemBits},
			{"srcC", func(h Header) Header { h.SrcC = 0; return h }, l.SrcCoreShift, l.SrcCoreBits},
			{"dstC", func(h Header) Header { h.DstC = 0; return h }, l.DstCoreShift, l.DstCoreBits},
			{"seq", func(h Header) Header { h.Seq = 0; return h }, l.SeqShift, l.SeqBits},
			{"spare", func(h Header) Header { h.Spare = 0; return h }, l.SpareShift, l.SpareBits},
		}
		for _, m := range muts {
			diff := w ^ l.Encode(m.mut(h))
			window := mask(m.width) << m.shift
			if diff&^window != 0 {
				t.Errorf("layout (%d,%d,%d): clearing %s disturbed bits outside its window: diff=%016x",
					d.rb, d.cb, d.vb, m.name, diff)
			}
			if m.width > 0 && diff == 0 {
				t.Errorf("layout (%d,%d,%d): clearing %s changed nothing (field not encoded?)", d.rb, d.cb, d.vb, m.name)
			}
		}
	}
}
