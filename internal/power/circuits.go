package power

import "math"

// log2ceil returns ceil(log2(n)) with log2ceil(1) == 0.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// EqComparator builds a width-bit equality comparator as a CAM-style row of
// compare bit-slices (XNOR + wired-AND match line) plus a match sense stage.
// This is the structure of the TASP target block (Figure 3): the paper's
// per-variant areas imply ~0.39 um^2 per compared bit, which matches a
// bit-slice structure rather than discrete XNOR + AND-tree gates.
func EqComparator(name string, width int, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(CMPBIT, width)
	b.Add(AND2, 1) // match-line sense
	// Match-line evaluation slows roughly linearly with row width (wired-AND RC).
	b.DepthPS = Default40nm[CMPBIT].DelayPS + float64(width)*2 + Default40nm[AND2].DelayPS
	return b
}

// Counter builds a width-bit binary up-counter: a DFF and a half adder
// (XOR2+AND2) per bit. The TASP payload counter is one of these.
func Counter(name string, width int, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(DFF, width)
	b.Add(XOR2, width)
	b.Add(AND2, width)
	b.DepthPS = Default40nm[XOR2].DelayPS + float64(width)*Default40nm[AND2].DelayPS*0.25
	return b
}

// LFSR builds a width-bit linear-feedback shift register (DFF chain plus a
// few feedback XORs), used by BIST pattern generation and L-Ob scrambling.
func LFSR(name string, width int, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(DFF, width)
	b.Add(XOR2, 3)
	b.DepthPS = 2 * Default40nm[XOR2].DelayPS
	return b
}

// XorStage builds an n-bit XOR layer applied across a datapath: the fault-
// injection tree of TASP (n = number of attackable wires) or an L-Ob
// scramble/invert stage.
func XorStage(name string, n int, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(XOR2, n)
	b.DepthPS = Default40nm[XOR2].DelayPS
	return b
}

// MuxTree builds an inputs:1 multiplexer for a width-bit datapath.
func MuxTree(name string, inputs, width int, activity float64) *Block {
	b := NewBlock(name, activity)
	if inputs > 1 {
		b.Add(MUX2, (inputs-1)*width)
	}
	b.DepthPS = float64(log2ceil(inputs)) * Default40nm[MUX2].DelayPS
	return b
}

// FIFO builds a slots x width register-file buffer with read/write pointers
// and full/empty logic. NoC input-VC buffers and retransmission buffers are
// FIFOs.
func FIFO(name string, slots, width int, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(SRAMBIT, slots*width)
	ptr := log2ceil(slots) + 1
	b.Add(DFF, 2*ptr) // read + write pointers
	b.Add(XOR2, ptr)  // full/empty compare
	b.Add(AND2, ptr)
	// Write decoder and read mux.
	b.AddSub(MuxTree(name+"/rdmux", slots, width, activity))
	b.DepthPS = float64(log2ceil(slots))*Default40nm[MUX2].DelayPS + Default40nm[AND2].DelayPS
	return b
}

// Crossbar builds a ports x ports crossbar for a width-bit datapath: one
// ports:1 mux tree per output.
func Crossbar(name string, ports, width int, activity float64) *Block {
	b := NewBlock(name, activity)
	for i := 0; i < ports; i++ {
		b.AddSub(MuxTree(name+"/out", ports, width, activity))
	}
	b.DepthPS = float64(log2ceil(ports)) * Default40nm[MUX2].DelayPS
	return b
}

// RoundRobinArbiter builds an n-requester round-robin arbiter: a rotating
// priority pointer plus a fixed-priority chain.
func RoundRobinArbiter(name string, n int, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(DFF, log2ceil(n))
	b.Add(AND2, 2*n)
	b.Add(OR2, n)
	b.Add(INV, n)
	b.DepthPS = float64(n) * Default40nm[AND2].DelayPS * 0.5
	return b
}

// Allocator builds a separable input-first allocator (VA or SA): a first
// stage of arbiters at the inputs and a second stage at the outputs.
func Allocator(name string, inputs, outputs int, activity float64) *Block {
	b := NewBlock(name, activity)
	for i := 0; i < inputs; i++ {
		b.AddSub(RoundRobinArbiter(name+"/in-arb", outputs, activity))
	}
	for o := 0; o < outputs; o++ {
		b.AddSub(RoundRobinArbiter(name+"/out-arb", inputs, activity))
	}
	return b
}

// ECCEncoder builds a Hamming(72,64) SECDED encoder: eight parity trees of
// roughly 32 XOR2 each.
func ECCEncoder(name string, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(XOR2, 8*32)
	b.DepthPS = 6 * Default40nm[XOR2].DelayPS // log2(64) levels
	return b
}

// ECCDecoder builds a SECDED decoder: syndrome trees, a 7-to-72 corrector
// decoder and 72 correction XORs.
func ECCDecoder(name string, activity float64) *Block {
	b := NewBlock(name, activity)
	b.Add(XOR2, 8*36) // syndrome trees (72 inputs each)
	b.Add(AND2, 72*2) // corrector decode
	b.Add(XOR2, 72)   // correction stage
	b.Add(INV, 16)
	b.DepthPS = 7*Default40nm[XOR2].DelayPS + 3*Default40nm[AND2].DelayPS
	return b
}

// ClockTree builds the clock-distribution buffers for a design with nFF
// flip-flops (one buffer per ~8 sinks, high activity — the clock toggles
// twice per cycle).
func ClockTree(name string, nFF int) *Block {
	b := NewBlock(name, 2.0) // clock nets toggle every half-cycle
	b.Add(CLKBUF, (nFF+7)/8)
	return b
}

// CountFFs returns the number of storage cells (DFF + SRAMBIT + LATCH) in
// the hierarchy, used to size clock trees.
func CountFFs(b *Block) int {
	n := b.CellCount(DFF) + b.CellCount(SRAMBIT) + b.CellCount(LATCH)
	for _, s := range b.Subs {
		n += CountFFs(s)
	}
	return n
}
