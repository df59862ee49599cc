package lob

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"tasp/internal/ecc"
	"tasp/internal/flit"
)

func allChoices() []Choice {
	var cs []Choice
	for _, m := range []Method{Scramble, Invert, Shuffle, Reorder} {
		for _, g := range []Granularity{WholeFlit, HeaderOnly, PayloadOnly} {
			cs = append(cs, Choice{m, g})
		}
	}
	return cs
}

func TestApplyUndoRoundTrip(t *testing.T) {
	ks := NewKeystream(1)
	for _, c := range allChoices() {
		key := ks.Next()
		for _, data := range []uint64{0, ^uint64(0), 0xdeadbeefcafebabe} {
			cw := ecc.Encode(data)
			got := defaultWindows.Undo(defaultWindows.Apply(cw, c, key), c, key)
			if got != cw {
				t.Errorf("%v: round trip failed for %016x", c, data)
			}
		}
	}
}

func TestApplyUndoRoundTripProperty(t *testing.T) {
	ks := NewKeystream(2)
	cs := allChoices()
	f := func(data uint64, pick uint8) bool {
		c := cs[int(pick)%len(cs)]
		key := ks.Next()
		cw := ecc.Encode(data)
		return defaultWindows.Undo(defaultWindows.Apply(cw, c, key), c, key) == cw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyActuallyChangesWires(t *testing.T) {
	ks := NewKeystream(3)
	cw := ecc.Encode(0x123456789abcdef0)
	for _, c := range allChoices() {
		if got := defaultWindows.Apply(cw, c, ks.Next()); got == cw {
			t.Errorf("%v left the codeword unchanged", c)
		}
	}
	if got := defaultWindows.Apply(cw, Choice{Method: None}, ecc.Codeword{}); got != cw {
		t.Error("None modified the codeword")
	}
}

func TestGranularityWindowsDisjoint(t *testing.T) {
	// Header and payload windows must partition the codeword, for every
	// layout's windows — here the default and an 8x8/concentration-8/8-VC
	// substrate's (3-bit vc, 6-bit router ids, 3-bit core ids).
	big, err := flit.LayoutFor(64, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Windows{defaultWindows, WindowsFor(big)} {
		if len(w.headerPos)+len(w.payloadPos) != ecc.CodewordBits {
			t.Fatalf("windows cover %d+%d of %d wires", len(w.headerPos), len(w.payloadPos), ecc.CodewordBits)
		}
		seen := map[int]bool{}
		for _, p := range append(append([]int{}, w.headerPos...), w.payloadPos...) {
			if seen[p] {
				t.Fatalf("wire %d in both windows", p)
			}
			seen[p] = true
		}
	}
}

// TestWindowsForExactAndOrdered pins the window contents against a direct
// reading of the layout (header window = the codeword images of the header
// data bits, ascending; payload = the rest, ascending; whole = every wire)
// and the construction cost every secured link pays: the struct and one
// backing array, nothing append-grown.
func TestWindowsForExactAndOrdered(t *testing.T) {
	big, err := flit.LayoutFor(256, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []flit.Layout{flit.Default, big} {
		hdr := map[int]bool{}
		for d := 0; d < l.HeaderBits(); d++ {
			hdr[ecc.DataPosition(d)] = true
		}
		var wantH, wantP, wantW []int
		for p := 0; p < ecc.CodewordBits; p++ {
			wantW = append(wantW, p)
			if hdr[p] {
				wantH = append(wantH, p)
			} else {
				wantP = append(wantP, p)
			}
		}
		w := WindowsFor(l)
		for _, c := range []struct {
			name      string
			got, want []int
		}{{"header", w.headerPos, wantH}, {"payload", w.payloadPos, wantP}, {"whole", w.wholePos, wantW}} {
			if fmt.Sprint(c.got) != fmt.Sprint(c.want) || cap(c.got) != len(c.want) {
				t.Errorf("%d header bits: %s window %v (cap %d), want %v", l.HeaderBits(), c.name, c.got, cap(c.got), c.want)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { WindowsFor(l) }); allocs > 2 {
			t.Errorf("%d header bits: WindowsFor makes %.0f allocations, want at most 2", l.HeaderBits(), allocs)
		}
	}
}

func TestWindowsScaleWithLayout(t *testing.T) {
	// A wider header layout obfuscates more wires under HeaderOnly: the
	// window tracks the layout's header span instead of a fixed 56 bits.
	big, err := flit.LayoutFor(64, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big.HeaderBits() <= flit.Default.HeaderBits() {
		t.Fatalf("expected 64-router layout to have a wider header than default (%d vs %d)",
			big.HeaderBits(), flit.Default.HeaderBits())
	}
	bw := WindowsFor(big)
	if len(bw.headerPos) != big.HeaderBits() {
		t.Fatalf("header window %d wires, want %d", len(bw.headerPos), big.HeaderBits())
	}
	if len(defaultWindows.headerPos) != flit.Default.HeaderBits() {
		t.Fatalf("default header window %d wires, want %d", len(defaultWindows.headerPos), flit.Default.HeaderBits())
	}
	// Round trip still holds on the scaled windows.
	ks := NewKeystream(7)
	for _, c := range allChoices() {
		key := ks.Next()
		cw := ecc.Encode(0xfeedface12345678)
		if got := bw.Undo(bw.Apply(cw, c, key), c, key); got != cw {
			t.Errorf("%v: round trip failed on scaled windows", c)
		}
	}
}

func TestHeaderOnlyLeavesPayloadWires(t *testing.T) {
	ks := NewKeystream(4)
	cw := ecc.Encode(0xaaaa5555ffff0000)
	got := defaultWindows.Apply(cw, Choice{Invert, HeaderOnly}, ks.Next())
	for _, p := range defaultWindows.payloadPos {
		if got.Bit(p) != cw.Bit(p) {
			t.Fatalf("header-only invert touched payload wire %d", p)
		}
	}
	changed := false
	for _, p := range defaultWindows.headerPos {
		if got.Bit(p) != cw.Bit(p) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("header-only invert changed nothing")
	}
}

func TestTwoFlipsSurviveUndo(t *testing.T) {
	// The core compatibility property with SECDED: a trojan's 2-bit strike
	// on the obfuscated word is still exactly 2 flips after undo, so the
	// fault is still detected, never silently absorbed.
	ks := NewKeystream(5)
	for _, c := range allChoices() {
		key := ks.Next()
		cw := ecc.Encode(0x0123456789abcdef)
		obf := defaultWindows.Apply(cw, c, key)
		struck := obf.Flip(7).Flip(41)
		back := defaultWindows.Undo(struck, c, key)
		if n := flips(back, cw); n != 2 {
			t.Errorf("%v: strike weight %d after undo, want 2", c, n)
		}
	}
}

func TestPenalties(t *testing.T) {
	if None.Penalty() != 0 {
		t.Error("None has a penalty")
	}
	if Scramble.Penalty() != 2 {
		t.Errorf("scramble penalty %d, want 2", Scramble.Penalty())
	}
	for _, m := range []Method{Invert, Shuffle, Reorder} {
		if m.Penalty() != 1 {
			t.Errorf("%v penalty %d, want 1", m, m.Penalty())
		}
	}
}

func TestEscalationOrderStartsWholeFlit(t *testing.T) {
	order := defaultEscalation[:]
	for i, c := range order[:4] {
		if c.Gran != WholeFlit {
			t.Errorf("escalation step %d is %v, want whole-flit first", i, c)
		}
	}
	for n := 0; n < len(order); n++ {
		if Escalate(nil, n) != order[n] {
			t.Errorf("Escalate(nil, %d) = %v", n, Escalate(nil, n))
		}
	}
	if c := Escalate(nil, 100); c.Method != Scramble {
		t.Errorf("post-order escalation is %v, want scramble", c)
	}
	custom := []Choice{{Invert, HeaderOnly}}
	if c := Escalate(custom, 0); c != custom[0] {
		t.Errorf("Escalate(custom, 0) = %v, want %v", c, custom[0])
	}
	if c := Escalate(custom, 1); c != (Choice{Scramble, WholeFlit}) {
		t.Errorf("past a custom order escalation is %v, want scramble/flit", c)
	}
}

func TestMethodLog(t *testing.T) {
	l := NewMethodLog()
	k := FlowKey{SrcR: 1, DstR: 2, VC: 3}
	if _, ok := l.Lookup(k); ok {
		t.Fatal("empty log returned a method")
	}
	c := Choice{Invert, HeaderOnly}
	l.Record(k, c)
	got, ok := l.Lookup(k)
	if !ok || got != c {
		t.Fatalf("lookup = %v,%v", got, ok)
	}
	if len(l.known) != 1 {
		t.Fatalf("log holds %d flows, want 1", len(l.known))
	}
	l.Forget(k)
	if _, ok := l.Lookup(k); ok {
		t.Fatal("forgotten flow still logged")
	}
}

func TestKeystreamDeterminism(t *testing.T) {
	a, b := NewKeystream(9), NewKeystream(9)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed keystreams diverged")
		}
	}
}

func TestStrings(t *testing.T) {
	if (Choice{Scramble, HeaderOnly}).String() != "scramble/header" {
		t.Errorf("choice string %q", Choice{Scramble, HeaderOnly}.String())
	}
	for m, w := range map[Method]string{None: "none", Scramble: "scramble", Invert: "invert", Shuffle: "shuffle", Reorder: "reorder"} {
		if m.String() != w {
			t.Errorf("%d = %q want %q", m, m.String(), w)
		}
	}
}

// defaultWindows are the windows of the paper's default header layout.
var defaultWindows = WindowsFor(flit.Default)

// flips counts the bits in which two codewords differ.
func flips(a, b ecc.Codeword) int {
	return bits.OnesCount64(a.Lo^b.Lo) + bits.OnesCount8(a.Hi^b.Hi)
}
