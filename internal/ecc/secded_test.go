package ecc

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeClean(t *testing.T) {
	for _, d := range []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeefcafebabe, 1 << 63} {
		got, st, syn := Decode(Encode(d))
		if st != OK || syn != 0 || got != d {
			t.Fatalf("clean decode of %016x: got %016x st=%v syn=%d", d, got, st, syn)
		}
	}
}

func TestEncodeDecodeCleanProperty(t *testing.T) {
	f := func(d uint64) bool {
		got, st, _ := Decode(Encode(d))
		return st == OK && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllSingleBitErrorsCorrected(t *testing.T) {
	data := uint64(0xa5a5_5a5a_0f0f_f0f0)
	cw := Encode(data)
	for p := 0; p < CodewordBits; p++ {
		got, st, _ := Decode(cw.Flip(p))
		if st != Corrected {
			t.Fatalf("flip at %d: status %v, want corrected", p, st)
		}
		if got != data {
			t.Fatalf("flip at %d: data %016x, want %016x", p, got, data)
		}
	}
}

func TestSingleBitErrorsCorrectedProperty(t *testing.T) {
	f := func(d uint64, p uint8) bool {
		pos := int(p) % CodewordBits
		got, st, _ := Decode(Encode(d).Flip(pos))
		return st == Corrected && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllDoubleBitErrorsDetected(t *testing.T) {
	// Exhaustive over all 72*71/2 pairs: every double error must be flagged
	// uncorrectable — this is the exact property the TASP attack relies on.
	data := uint64(0x0123_4567_89ab_cdef)
	cw := Encode(data)
	for i := 0; i < CodewordBits; i++ {
		for j := i + 1; j < CodewordBits; j++ {
			_, st, syn := Decode(cw.Flip(i).Flip(j))
			if st != Uncorrectable {
				t.Fatalf("flips at (%d,%d): status %v, want uncorrectable", i, j, st)
			}
			if syn == 0 {
				t.Fatalf("flips at (%d,%d): zero syndrome", i, j)
			}
		}
	}
}

func TestDoubleBitErrorsDetectedProperty(t *testing.T) {
	f := func(d uint64, a, b uint8) bool {
		i, j := int(a)%CodewordBits, int(b)%CodewordBits
		if i == j {
			j = (j + 1) % CodewordBits
		}
		_, st, _ := Decode(Encode(d).Flip(i).Flip(j))
		return st == Uncorrectable
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataPositionMaps(t *testing.T) {
	seen := map[int]bool{}
	for d := 0; d < DataBits; d++ {
		p := DataPosition(d)
		if p <= 0 || p >= CodewordBits {
			t.Fatalf("data bit %d mapped to invalid position %d", d, p)
		}
		if p&(p-1) == 0 {
			t.Fatalf("data bit %d mapped to parity position %d", d, p)
		}
		if seen[p] {
			t.Fatalf("position %d mapped twice", p)
		}
		seen[p] = true
		if posData[p] != d {
			t.Fatalf("inverse map broken at data bit %d (pos %d)", d, p)
		}
	}
	// Parity positions must report -1.
	for _, p := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
		if posData[p] != -1 {
			t.Fatalf("parity position %d claims data bit %d", p, posData[p])
		}
	}
}

func TestDataBitTravelsToItsPosition(t *testing.T) {
	for d := 0; d < DataBits; d++ {
		cw := Encode(uint64(1) << uint(d))
		if cw.Bit(DataPosition(d)) != 1 {
			t.Fatalf("data bit %d not present at its position %d", d, DataPosition(d))
		}
	}
}

func TestCodewordBitFlipXor(t *testing.T) {
	var c Codeword
	c = c.Flip(0).Flip(63).Flip(64).Flip(71)
	for _, p := range []int{0, 63, 64, 71} {
		if c.Bit(p) != 1 {
			t.Fatalf("bit %d not set after flip", p)
		}
	}
	if weight(c) != 4 {
		t.Fatalf("weight = %d, want 4", weight(c))
	}
	if want := (Codeword{Lo: 1 | 1<<63, Hi: 0x81}); c != want {
		t.Fatalf("flips gave %+v, want %+v", c, want)
	}
}

func TestTripleErrorsAreNotSilentlyAccepted(t *testing.T) {
	// SECDED makes no promise for 3 flips, but the decoder must never
	// return OK with wrong data: 3 flips always show odd overall parity and
	// decode as a (mis)correction, never as a clean word.
	data := uint64(0xfeed_face_dead_beef)
	cw := Encode(data)
	tested := 0
	for i := 0; i < CodewordBits; i += 7 {
		for j := i + 1; j < CodewordBits; j += 5 {
			for k := j + 1; k < CodewordBits; k += 3 {
				_, st, _ := Decode(cw.Flip(i).Flip(j).Flip(k))
				if st == OK {
					t.Fatalf("triple flip (%d,%d,%d) decoded as clean", i, j, k)
				}
				tested++
			}
		}
	}
	if tested == 0 {
		t.Fatal("no triples tested")
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{OK: "ok", Corrected: "corrected", Uncorrectable: "uncorrectable"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q want %q", st, st.String(), want)
		}
	}
}
