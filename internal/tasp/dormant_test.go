package tasp

import (
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// TestDormantTrojansAreInert is the trojan half of the warm-up fork's
// soundness argument (core.RunGroup): with the kill switch off, every
// family forwards every codeword unchanged and leaves its statistics and
// FSM state where Reset put them — so a trojan that sat on a link through
// the warm-up is indistinguishable, at the enable cycle, from one installed
// there and then. The words are random and, half of the time, headers
// aimed at the target, under every framing and at random cycles (the
// adaptive families gate on the cycle).
func TestDormantTrojansAreInert(t *testing.T) {
	const victim = 5
	target := ForDest(victim)
	l := flit.Default
	coord := NewCollusion(0)
	colluder := NewColludingDropper(target, l, coord)
	colluder.SetRole(0, 1) // on duty in every slice once armed
	for _, tr := range []Trojan{
		New(target, DefaultPayloadBits, l),
		NewDropper(target, l),
		NewMisrouter(target, 12, l),
		NewThrottledDropper(target, l, 10, 10), // always on duty once armed
		colluder,
	} {
		t.Run(tr.Kind().String(), func(t *testing.T) {
			rng := xrand.New(uint64(tr.Kind()) + 1)
			tr.Reset()
			matches, strikes := tr.Stats()
			for i := 0; i < 20000; i++ {
				cw := ecc.Codeword{Lo: rng.Uint64(), Hi: uint8(rng.Uint64())}
				if rng.Bool(0.5) {
					cw = ecc.Encode(l.Encode(flit.Header{
						Kind: flit.Head, DstR: victim, SrcR: uint8(rng.Intn(16)),
						VC: uint8(rng.Intn(4)), Mem: uint32(rng.Uint64()),
					}))
				}
				fr := fault.Framing{Head: rng.Bool(0.5), Tail: rng.Bool(0.5)}
				got, oc := tr.Strike(rng.Uint64()%4096, cw, fr)
				if got != cw || oc != fault.Forward {
					t.Fatalf("dormant %s changed a word: %+v -> %+v (outcome %v, framing %+v)", tr.Kind(), cw, got, oc, fr)
				}
			}
			if m, s := tr.Stats(); m != matches || s != strikes {
				t.Fatalf("dormant %s counted %d matches / %d strikes", tr.Kind(), m, s)
			}
			if tr.State() != Idle {
				t.Fatalf("dormant %s left Idle: %v", tr.Kind(), tr.State())
			}
			// The same words do strike once the kill switch is on: the test
			// would otherwise pass on a trojan that never fires.
			tr.SetKillSwitch(true)
			cw := ecc.Encode(l.Encode(flit.Header{Kind: flit.Head, DstR: victim}))
			if got, oc := tr.Strike(1, cw, fault.Framing{Head: true}); got == cw && oc == fault.Forward {
				t.Fatalf("armed %s let its target pass", tr.Kind())
			}
		})
	}
}
