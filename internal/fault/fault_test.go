package fault

import (
	"testing"

	"tasp/internal/ecc"
)

func TestNoneIsIdentity(t *testing.T) {
	w := ecc.Encode(0xdeadbeef)
	if got := strike(t, None, 0, w); got != w {
		t.Fatalf("None mutated the codeword")
	}
}

func TestTransientRespectsRate(t *testing.T) {
	// At rate 0 the source must never flip; at a huge rate it must flip.
	quiet := NewTransient(0, 1)
	w := ecc.Encode(42)
	for c := uint64(0); c < 1000; c++ {
		if strike(t, quiet, c, w) != w {
			t.Fatal("zero-rate transient source flipped a bit")
		}
	}
	noisy := NewTransient(0.5, 1)
	flipped := false
	for c := uint64(0); c < 100; c++ {
		if strike(t, noisy, c, w) != w {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("high-rate transient source never flipped")
	}
}

func TestTransientMostlyCorrectable(t *testing.T) {
	// With a realistic (small) BER, upsets must be overwhelmingly
	// single-bit, i.e. corrected by SECDED — the property that
	// distinguishes background noise from the trojan's 2-bit payloads.
	tr := NewTransient(1e-4, 9)
	data := uint64(0x0f0f_f0f0_1234_5678)
	cw := ecc.Encode(data)
	var corrected, uncorrectable int
	for c := uint64(0); c < 200000; c++ {
		_, st, _ := ecc.Decode(strike(t, tr, c, cw))
		switch st {
		case ecc.Corrected:
			corrected++
		case ecc.Uncorrectable:
			uncorrectable++
		}
	}
	if corrected == 0 {
		t.Fatal("no transient upsets observed at BER 1e-4 over 200k traversals")
	}
	if uncorrectable > corrected/10 {
		t.Fatalf("too many uncorrectable transients: %d vs %d corrected", uncorrectable, corrected)
	}
}

func TestStuckAtForcesWires(t *testing.T) {
	s := NewStuckAt(map[int]uint{5: 1, 20: 0})
	// Drive both polarities through the stuck wires.
	w := ecc.Codeword{}
	got := strike(t, s, 0, w)
	if got.Bit(5) != 1 {
		t.Fatal("stuck-at-1 wire not forced high")
	}
	w = w.Flip(20)
	got = strike(t, s, 0, w)
	if got.Bit(20) != 0 {
		t.Fatal("stuck-at-0 wire not forced low")
	}
}

func TestStuckAtTransparentWhenDataMatches(t *testing.T) {
	s := NewStuckAt(map[int]uint{3: 1})
	w := ecc.Codeword{}.Flip(3)
	if strike(t, s, 0, w) != w {
		t.Fatal("stuck-at mutated a word that already matched")
	}
}

func TestStuckAtCopiesMap(t *testing.T) {
	m := map[int]uint{7: 1}
	s := NewStuckAt(m)
	m[7] = 0
	w := ecc.Codeword{}
	if strike(t, s, 0, w).Bit(7) != 1 {
		t.Fatal("fault source shares caller's map")
	}
}

func TestChainAppliesInOrder(t *testing.T) {
	a := ForwardFunc(func(_ uint64, w ecc.Codeword, _ Framing) ecc.Codeword { return w.Flip(0) })
	b := ForwardFunc(func(_ uint64, w ecc.Codeword, _ Framing) ecc.Codeword { return w.Flip(0).Flip(1) })
	c := Chain{a, b}
	got := strike(t, c, 0, ecc.Codeword{})
	if got.Bit(0) != 0 || got.Bit(1) != 1 {
		t.Fatalf("chain misapplied: bits %d %d", got.Bit(0), got.Bit(1))
	}
}

// strike drives one head-framed traversal through a and returns the word it
// forwards; every fault source in this package forwards.
func strike(t *testing.T, a Adversary, cycle uint64, w ecc.Codeword) ecc.Codeword {
	t.Helper()
	out, oc := a.Strike(cycle, w, Framing{Head: true})
	if oc != Forward {
		t.Fatalf("%T swallowed a flit", a)
	}
	return out
}
