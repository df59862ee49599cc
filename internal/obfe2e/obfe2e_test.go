package obfe2e

import (
	"testing"
	"testing/quick"

	"tasp/internal/flit"
)

// TestApplyRemoveRoundTrip checks that the destination unscrambles by
// applying the same keystream again: Apply is its own inverse.
func TestApplyRemoveRoundTrip(t *testing.T) {
	s := New(42)
	p := &flit.Packet{
		Hdr:  flit.Header{SrcR: 3, DstR: 11, Seq: 7, Mem: 0xdeadbeef},
		Body: []uint64{1, 2, 3, 4},
	}
	orig := *p
	origBody := append([]uint64(nil), p.Body...)
	s.Apply(p)
	if p.Hdr.Mem == orig.Hdr.Mem {
		t.Fatal("memory address not scrambled")
	}
	s.Apply(p)
	if p.Hdr.Mem != orig.Hdr.Mem {
		t.Fatalf("mem not restored: %x != %x", p.Hdr.Mem, orig.Hdr.Mem)
	}
	for i := range p.Body {
		if p.Body[i] != origBody[i] {
			t.Fatalf("body word %d not restored", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := New(7)
	f := func(src, dst, seq uint8, mem uint32, body uint64) bool {
		p := &flit.Packet{Hdr: flit.Header{SrcR: src & 15, DstR: dst & 15, Seq: seq, Mem: mem}, Body: []uint64{body}}
		want := *p
		wantBody := p.Body[0]
		s.Apply(p)
		s.Apply(p)
		return p.Hdr.Mem == want.Hdr.Mem && p.Body[0] == wantBody
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingFieldsStayPlaintext(t *testing.T) {
	s := New(1)
	p := &flit.Packet{Hdr: flit.Header{VC: 2, SrcR: 5, DstR: 9, Seq: 3, Mem: 0x100}}
	s.Apply(p)
	if p.Hdr.SrcR != 5 || p.Hdr.DstR != 9 || p.Hdr.VC != 2 {
		t.Fatal("routing fields were scrambled — the packet would be unroutable")
	}
}

func TestDifferentPairsDifferentKeystreams(t *testing.T) {
	s := New(9)
	a := &flit.Packet{Hdr: flit.Header{SrcR: 1, DstR: 2, Mem: 0}}
	b := &flit.Packet{Hdr: flit.Header{SrcR: 1, DstR: 3, Mem: 0}}
	s.Apply(a)
	s.Apply(b)
	if a.Hdr.Mem == b.Hdr.Mem {
		t.Fatal("different pairs share a keystream")
	}
}

func TestDifferentSeedsDifferentKeys(t *testing.T) {
	p1 := &flit.Packet{Hdr: flit.Header{SrcR: 1, DstR: 2, Mem: 0}}
	p2 := &flit.Packet{Hdr: flit.Header{SrcR: 1, DstR: 2, Mem: 0}}
	New(1).Apply(p1)
	New(2).Apply(p2)
	if p1.Hdr.Mem == p2.Hdr.Mem {
		t.Fatal("chip secrets do not differentiate keystreams")
	}
}
