// Package ecc implements the Hamming(72,64) SECDED code the paper assumes on
// every router-to-router link: single-error correction, double-error
// detection. One injected fault is silently corrected by the receiver; two
// simultaneous faults are detected but uncorrectable and force a switch-to-
// switch retransmission — exactly the response the TASP hardware trojan
// exploits to mount its denial-of-service attack.
//
// The codeword layout is the classic extended Hamming construction: 72 bit
// positions, position 0 holds the overall (extended) parity, positions that
// are powers of two (1, 2, 4, 8, 16, 32, 64) hold the Hamming check bits, and
// the remaining 64 positions hold data bits in ascending order. The package
// exports the data-bit <-> codeword-position maps because the attacker is
// assumed to know the code (Section III-B): the TASP comparator taps codeword
// wires, not logical header bits.
package ecc

import "math/bits"

// CodewordBits is the width of an encoded link word.
const CodewordBits = 72

// DataBits is the width of the information word (one flit payload).
const DataBits = 64

// Status is the outcome of decoding a received codeword.
type Status uint8

const (
	// OK means the codeword arrived with no detectable error.
	OK Status = iota
	// Corrected means a single-bit error was detected and corrected.
	Corrected
	// Uncorrectable means a double-bit error was detected; the decoder
	// cannot repair it and the flit must be retransmitted.
	Uncorrectable
)

// String names the decode status.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	default:
		return "status(?)"
	}
}

// Codeword is a 72-bit encoded link word. Bit i of the codeword is bit i%64
// of Lo for i < 64 and bit i-64 of Hi otherwise.
type Codeword struct {
	Lo uint64 // codeword bits 0..63
	Hi uint8  // codeword bits 64..71
}

// Bit returns codeword bit i (0 <= i < 72).
func (c Codeword) Bit(i int) uint {
	if i < 64 {
		return uint(c.Lo>>uint(i)) & 1
	}
	return uint(c.Hi>>uint(i-64)) & 1
}

// Flip toggles codeword bit i and returns the modified codeword.
func (c Codeword) Flip(i int) Codeword {
	if i < 64 {
		c.Lo ^= 1 << uint(i)
	} else {
		c.Hi ^= 1 << uint(i-64)
	}
	return c
}

// dataPos[d] is the codeword position of data bit d; posData[p] is the data
// bit stored at codeword position p, or -1 for parity positions.
var (
	dataPos [DataBits]int
	posData [CodewordBits]int
)

// Precomputed acceleration structures. Encode/Decode sit on the simulator's
// per-traversal hot path (every link crossing encodes and decodes), so the
// bit-at-a-time construction is folded into byte-indexed scatter/gather
// tables plus parity masks evaluated with popcounts. The tables are derived
// from the same dataPos/posData layout the package exports, so the emitted
// codewords are bit-for-bit those of the reference construction (the golden
// matrix model in golden_test.go cross-checks this).
var (
	// spreadTab[k][v] scatters byte k of the data word (value v) into its
	// codeword positions (parallel Lo/Hi planes, so Encode moves words, not
	// structs).
	spreadLo [8][256]uint64
	spreadHi [8][256]uint8
	// gatherTab[k][v] collects the data bits carried by byte k of the
	// codeword (byte 8 is the Hi octet).
	gatherTab [9][256]uint64
	// chkMask[i] selects every codeword position p >= 1 with bit i set in
	// its index — the coverage of Hamming check bit 2^i (including the
	// check position itself, which is zero at encode time).
	chkMaskLo [7]uint64
	chkMaskHi [7]uint8
)

func init() {
	d := 0
	for p := 0; p < CodewordBits; p++ {
		posData[p] = -1
		if p == 0 || p&(p-1) == 0 { // overall parity at 0, checks at powers of 2
			continue
		}
		posData[p] = d
		dataPos[d] = p
		d++
	}
	if d != DataBits {
		panic("ecc: layout produced wrong data width")
	}
	for k := 0; k < 8; k++ {
		for v := 0; v < 256; v++ {
			var c Codeword
			for j := 0; j < 8; j++ {
				if v>>uint(j)&1 == 1 {
					c = c.Flip(dataPos[k*8+j])
				}
			}
			spreadLo[k][v] = c.Lo
			spreadHi[k][v] = c.Hi
		}
	}
	for k := 0; k < 9; k++ {
		for v := 0; v < 256; v++ {
			var data uint64
			for j := 0; j < 8; j++ {
				p := k*8 + j
				if p < CodewordBits && posData[p] >= 0 && v>>uint(j)&1 == 1 {
					data |= 1 << uint(posData[p])
				}
			}
			gatherTab[k][v] = data
		}
	}
	for i := 0; i < 7; i++ {
		for p := 1; p < CodewordBits; p++ {
			if p&(1<<uint(i)) == 0 {
				continue
			}
			if p < 64 {
				chkMaskLo[i] |= 1 << uint(p)
			} else {
				chkMaskHi[i] |= 1 << uint(p-64)
			}
		}
	}
}

// DataPosition returns the codeword position that carries data bit d.
func DataPosition(d int) int { return dataPos[d] }

// Encode computes the SECDED codeword for a 64-bit data word.
func Encode(data uint64) Codeword {
	// Scatter the data bytes into their codeword positions.
	lo := spreadLo[0][data&0xff] | spreadLo[1][data>>8&0xff] |
		spreadLo[2][data>>16&0xff] | spreadLo[3][data>>24&0xff] |
		spreadLo[4][data>>32&0xff] | spreadLo[5][data>>40&0xff] |
		spreadLo[6][data>>48&0xff] | spreadLo[7][data>>56]
	hi := spreadHi[0][data&0xff] | spreadHi[1][data>>8&0xff] |
		spreadHi[2][data>>16&0xff] | spreadHi[3][data>>24&0xff] |
		spreadHi[4][data>>32&0xff] | spreadHi[5][data>>40&0xff] |
		spreadHi[6][data>>48&0xff] | spreadHi[7][data>>56]
	c := Codeword{Lo: lo, Hi: hi}
	// Hamming check bits: check bit at position 2^i covers every position
	// whose index has bit i set. The check positions themselves are still
	// zero here, so the mask parity is exactly the data-coverage parity.
	for i := 0; i < 7; i++ {
		if (bits.OnesCount64(c.Lo&chkMaskLo[i])+bits.OnesCount8(c.Hi&chkMaskHi[i]))&1 == 1 {
			c = c.Flip(1 << uint(i))
		}
	}
	// Overall parity at position 0 makes total parity even (position 0 is
	// still zero, so whole-word parity equals the parity over 1..71).
	if (bits.OnesCount64(c.Lo)+bits.OnesCount8(c.Hi))&1 == 1 {
		c.Lo ^= 1
	}
	return c
}

// extractData gathers the 64 data bits out of a codeword.
func extractData(c Codeword) uint64 {
	data := gatherTab[0][c.Lo&0xff]
	for k := 1; k < 8; k++ {
		data |= gatherTab[k][c.Lo>>uint(k*8)&0xff]
	}
	return data | gatherTab[8][c.Hi]
}

// Decode checks and, when possible, corrects a received codeword. It returns
// the recovered 64-bit data word, the decode status and the raw Hamming
// syndrome (the position of the flipped bit for single-bit errors; for
// double-bit errors the syndrome is a nonzero fingerprint of the error pair
// that the threat detector records in its fault history).
func Decode(c Codeword) (data uint64, st Status, syndrome int) {
	// Syndrome: parity of each check's coverage mask (which includes the
	// check position itself on the decode side).
	syn := 0
	for i := 0; i < 7; i++ {
		if (bits.OnesCount64(c.Lo&chkMaskLo[i])+bits.OnesCount8(c.Hi&chkMaskHi[i]))&1 == 1 {
			syn |= 1 << uint(i)
		}
	}
	overall := uint(bits.OnesCount64(c.Lo)+bits.OnesCount8(c.Hi)) & 1

	switch {
	case syn == 0 && overall == 0:
		return extractData(c), OK, 0
	case syn == 0 && overall == 1:
		// The overall parity bit itself flipped; data is intact.
		return extractData(c), Corrected, 0
	case overall == 1:
		// Odd number of flips with a nonzero syndrome: single-bit error.
		if syn < CodewordBits {
			c = c.Flip(syn)
		}
		return extractData(c), Corrected, syn
	default:
		// Nonzero syndrome with even overall parity: double-bit error.
		return extractData(c), Uncorrectable, syn
	}
}
