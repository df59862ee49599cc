// Package logictest models post-fabrication trojan detection by logic
// testing (paper Sections II and III-A, MERO [18]): driving random and
// directed test vectors through the link and watching for the trojan to
// reveal itself by corrupting a word. The paper's analysis, reproduced
// here: small combinational triggers (a 2-bit VC comparator) are excited
// quickly by random vectors, wide triggers (the 42-bit Full comparator)
// practically never — and a trojan gated behind an external kill switch is
// invisible to logic testing entirely, "preventing logic testing from
// accidentally triggering the HT and revealing itself in the verification
// process".
package logictest

import (
	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/xrand"
)

// Campaign configures a logic-testing run against one link tap.
type Campaign struct {
	// Vectors is the number of test words driven through the link.
	Vectors int
	// Directed, when true, biases vectors toward realistic header layouts
	// (valid flit-type fields, small router ids) instead of uniform random
	// bits — a smarter, MERO-like stimulus.
	Directed bool
}

// Result reports a campaign's outcome.
type Result struct {
	Vectors   int
	Triggers  int     // vectors the trojan corrupted or swallowed
	FirstAt   int     // 1-based index of the first trigger (0 = never)
	TriggerPr float64 // Triggers / Vectors
}

// Detected reports whether the campaign exposed the trojan.
func (r Result) Detected() bool { return r.Triggers > 0 }

// Run drives the campaign through the tap. Every vector is framed as a head
// flit (test harnesses control the framing wires). A vector the tap corrupts
// or swallows is a trigger.
func (c Campaign) Run(tap fault.Adversary, seed uint64) Result {
	rng := xrand.New(seed)
	res := Result{Vectors: c.Vectors}
	for i := 1; i <= c.Vectors; i++ {
		var data uint64
		if c.Directed {
			// Bias: plausible header fields — type head/single, random
			// small ids, random address — covering realistic traffic.
			data = rng.Uint64() & 0xffffffffffff0000
			data |= rng.Uint64() & 0xffff
		} else {
			data = rng.Uint64()
		}
		cw := ecc.Encode(data)
		got, oc := tap.Strike(uint64(i), cw, fault.Framing{Head: true, Tail: true})
		if oc == fault.Swallow || got != cw {
			res.Triggers++
			if res.FirstAt == 0 {
				res.FirstAt = i
			}
		}
	}
	if c.Vectors > 0 {
		res.TriggerPr = float64(res.Triggers) / float64(c.Vectors)
	}
	return res
}
