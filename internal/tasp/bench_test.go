package tasp

import (
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

func BenchmarkStrikeMiss(b *testing.B) {
	ht := New(ForDest(9), DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	cw := ecc.Encode(flit.Default.Encode(flit.Header{Kind: flit.Single, DstR: 5}))
	fr := fault.Framing{Head: true, Tail: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Strike(uint64(i), cw, fr)
	}
}

func BenchmarkStrikeHit(b *testing.B) {
	ht := New(ForDest(9), DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	cw := ecc.Encode(flit.Default.Encode(flit.Header{Kind: flit.Single, DstR: 9}))
	fr := fault.Framing{Head: true, Tail: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Strike(uint64(i), cw, fr)
	}
}

func BenchmarkStrikeFullTarget(b *testing.B) {
	ht := New(ForFull(3, 9, 1, 0x09000000, 0xff000000), DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	cw := ecc.Encode(flit.Default.Encode(flit.Header{Kind: flit.Single, VC: 1, SrcR: 3, DstR: 9, Mem: 0x09001234}))
	fr := fault.Framing{Head: true, Tail: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Strike(uint64(i), cw, fr)
	}
}
