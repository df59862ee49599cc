package tasp

import (
	"math/bits"
	"testing"
	"testing/quick"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

// forwarded is the word a flip trojan's Strike forwards; the flip family
// never swallows.
func forwarded(cw ecc.Codeword, _ fault.Outcome) ecc.Codeword { return cw }

func headWord(h flit.Header) ecc.Codeword {
	h.Kind = flit.Single
	return ecc.Encode(flit.Default.Encode(h))
}

func TestIdleUntilKillSwitch(t *testing.T) {
	ht := New(ForDest(5), DefaultPayloadBits, flit.Default)
	cw := headWord(flit.Header{DstR: 5})
	if got := forwarded(ht.Strike(0, cw, fault.Framing{Head: true})); got != cw {
		t.Fatal("dormant trojan injected a fault")
	}
	if ht.State() != Idle {
		t.Fatalf("state %v, want idle", ht.State())
	}
	ht.SetKillSwitch(true)
	if ht.State() != Active {
		t.Fatalf("state %v after killsw, want active", ht.State())
	}
	if got := forwarded(ht.Strike(1, cw, fault.Framing{Head: true})); got == cw {
		t.Fatal("armed trojan did not strike its target")
	}
	if ht.State() != Attacking {
		t.Fatalf("state %v after strike, want attacking", ht.State())
	}
	ht.SetKillSwitch(false)
	if ht.State() != Idle {
		t.Fatal("kill switch off did not return the trojan to idle")
	}
	if got := forwarded(ht.Strike(2, cw, fault.Framing{Head: true})); got != cw {
		t.Fatal("disarmed trojan struck")
	}
}

func TestStrikeIsUncorrectable(t *testing.T) {
	// The core attack property: every strike flips exactly two bits, which
	// SECDED detects but cannot correct, forcing a retransmission.
	ht := New(ForDest(9), DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	cw := headWord(flit.Header{DstR: 9, Mem: 0xabcd})
	for i := 0; i < 100; i++ {
		struck := forwarded(ht.Strike(uint64(i), cw, fault.Framing{Head: true}))
		if struck == cw {
			t.Fatalf("strike %d missed", i)
		}
		_, st, _ := ecc.Decode(struck)
		if st != ecc.Uncorrectable {
			t.Fatalf("strike %d decoded as %v, want uncorrectable", i, st)
		}
	}
	if matches, injections := ht.Stats(); injections != 100 || matches != 100 {
		t.Fatalf("counters: %d injections, %d matches", injections, matches)
	}
}

func TestNonTargetPassesUntouched(t *testing.T) {
	ht := New(ForDest(9), DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	for d := 0; d < 16; d++ {
		if d == 9 {
			continue
		}
		cw := headWord(flit.Header{DstR: uint8(d)})
		if forwarded(ht.Strike(0, cw, fault.Framing{Head: true})) != cw {
			t.Fatalf("trojan struck wrong destination %d", d)
		}
	}
	if _, injections := ht.Stats(); injections != 0 {
		t.Fatal("injections counted on non-targets")
	}
}

func TestBodyFlitsNormallyIgnored(t *testing.T) {
	ht := New(ForDest(9), DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	// A body flit whose payload would match the target but whose type
	// field says Body (01) must not trigger deep packet inspection.
	h := flit.Header{Kind: flit.Single, DstR: 9}
	w := flit.Default.Encode(h)
	w = (w &^ 3) | uint64(flit.Body) // overwrite type bits
	if got := forwarded(ht.Strike(0, ecc.Encode(w), fault.Framing{Head: false})); got != ecc.Encode(w) {
		t.Fatal("trojan struck a body flit")
	}
}

func TestPayloadStatesShift(t *testing.T) {
	ht := New(ForDest(3), 4, flit.Default) // 4 wires -> 6 payload states
	if ht.PayloadStates() != 6 {
		t.Fatalf("payload states %d, want 6", ht.PayloadStates())
	}
	ht.SetKillSwitch(true)
	cw := headWord(flit.Header{DstR: 3})
	seen := map[[2]uint64]bool{}
	for i := 0; i < 6; i++ {
		struck := forwarded(ht.Strike(uint64(i), cw, fault.Framing{Head: true}))
		diff := [2]uint64{struck.Lo ^ cw.Lo, uint64(struck.Hi ^ cw.Hi)}
		if seen[diff] {
			t.Fatalf("payload state %d repeated a flip mask", i)
		}
		seen[diff] = true
	}
	// State 7 wraps to the first mask.
	struck := forwarded(ht.Strike(7, cw, fault.Framing{Head: true}))
	diff := [2]uint64{struck.Lo ^ cw.Lo, uint64(struck.Hi ^ cw.Hi)}
	if !seen[diff] {
		t.Fatal("payload counter did not wrap")
	}
}

func TestAllVariantsMatchTheirFlows(t *testing.T) {
	hdr := flit.Header{VC: 2, SrcR: 4, DstR: 11, Mem: 0x0b001234}
	cases := []struct {
		name   string
		target Target
		miss   flit.Header
	}{
		{"dest", ForDest(11), flit.Header{VC: 2, SrcR: 4, DstR: 12, Mem: 0x0b001234}},
		{"src", ForSrc(4), flit.Header{VC: 2, SrcR: 5, DstR: 11, Mem: 0x0b001234}},
		{"destsrc", ForDestSrc(4, 11), flit.Header{VC: 2, SrcR: 4, DstR: 12, Mem: 0x0b001234}},
		{"vc", ForVC(2), flit.Header{VC: 1, SrcR: 4, DstR: 11, Mem: 0x0b001234}},
		{"mem", ForMem(0x0b000000, 0xff000000), flit.Header{VC: 2, SrcR: 4, DstR: 11, Mem: 0x0c001234}},
		{"full", ForFull(4, 11, 2, 0x0b000000, 0xff000000), flit.Header{VC: 3, SrcR: 4, DstR: 11, Mem: 0x0b001234}},
	}
	for _, tc := range cases {
		ht := New(tc.target, DefaultPayloadBits, flit.Default)
		ht.SetKillSwitch(true)
		hit := headWord(hdr)
		if forwarded(ht.Strike(0, hit, fault.Framing{Head: true})) == hit {
			t.Errorf("%s: target flow not struck", tc.name)
		}
		miss := headWord(tc.miss)
		if forwarded(ht.Strike(0, miss, fault.Framing{Head: true})) != miss {
			t.Errorf("%s: non-target flow struck", tc.name)
		}
	}
}

func TestTargetKindWidths(t *testing.T) {
	// Each variant's comparator taps its fields' wires: on the default
	// layout, Table I's widths.
	want := map[Target]int{
		ForFull(1, 2, 3, 0, 0xffffffff): 42, ForDest(1): 4, ForSrc(1): 4,
		ForDestSrc(1, 2): 8, ForMem(0, 0xffffffff): 32, ForVC(1): 2,
	}
	for target, w := range want {
		if got := len(target.compile(flit.Default)); got != w {
			t.Errorf("%v comparator taps %d wires, want %d", target.Kind, got, w)
		}
	}
	names := map[TargetKind]string{
		TargetFull: "Full", TargetDest: "Dest", TargetSrc: "Src",
		TargetDestSrc: "Dest_Src", TargetMem: "Mem", TargetVC: "VC",
	}
	for k, n := range names {
		if k.String() != n {
			t.Errorf("%d name %q, want %q", k, k.String(), n)
		}
	}
}

func TestCompiledTapCountsMatchWidths(t *testing.T) {
	full := ForFull(1, 2, 3, 0xdead0000, 0xffffffff)
	if got := len(full.compile(flit.Default)); got != 42 {
		t.Fatalf("full target taps %d wires, want 42", got)
	}
	mem := ForMem(0x12340000, 0xffff0000)
	if got := len(mem.compile(flit.Default)); got != 16 {
		t.Fatalf("masked mem target taps %d wires, want 16", got)
	}
}

func TestStrikeAlwaysTwoFlipsProperty(t *testing.T) {
	ht := New(ForVC(1), DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	f := func(src, dst uint8, mem uint32) bool {
		cw := headWord(flit.Header{VC: 1, SrcR: src & 15, DstR: dst & 15, Mem: mem})
		struck := forwarded(ht.Strike(0, cw, fault.Framing{Head: true}))
		return bits.OnesCount64(struck.Lo^cw.Lo)+bits.OnesCount8(struck.Hi^cw.Hi) == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnTinyCounter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 1-bit counter did not panic")
		}
	}()
	New(ForDest(1), 1, flit.Default)
}
