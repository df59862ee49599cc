package tasp

import (
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
)

// TestStrikeCountingAndGating feeds every family the same scripted stream
// of armed sightings over several duty periods and pins, word by word, what
// it counts, whether it strikes and its FSM state. Flip and drop count a
// match and a strike on every sighting. Throttle and collude count every
// sighting as a match but swallow, count a strike and enter Attacking only
// on duty. Misroute counts nothing for a sighted word SECDED can no longer
// correct. The on-duty cycles are written out, not computed: throttle's
// active span is 1-based within each period, and collude's slice k covers
// cycles (slice*(k-1), slice*k].
func TestStrikeCountingAndGating(t *testing.T) {
	const victim, hijack, cycles = 5, 12, 45
	l := flit.Default
	target := ForDest(victim)
	head := ecc.Encode(l.Encode(flit.Header{Kind: flit.Head, DstR: victim, SrcR: 2, Mem: 0x1234}))
	// Two flipped Mem bits: SECDED detects the word but cannot correct it,
	// while the destination wires the comparator taps still match.
	broken := head.Flip(ecc.DataPosition(int(l.MemShift))).Flip(ecc.DataPosition(int(l.MemShift) + 1))
	if _, st, _ := ecc.Decode(broken); st != ecc.Uncorrectable {
		t.Fatalf("the broken word decodes %v", st)
	}
	during := func(spans ...[2]uint64) func(uint64) bool {
		return func(c uint64) bool {
			for _, s := range spans {
				if c >= s[0] && c <= s[1] {
					return true
				}
			}
			return false
		}
	}
	colluder := NewColludingDropper(target, l, NewCollusion(5))
	colluder.SetRole(1, 3) // slices 1, 4, 7, ... of 5 cycles each
	cases := []struct {
		tr         Trojan
		onDuty     func(cycle uint64) bool // nil: always on duty
		skipBroken bool                    // an uncorrectable sighting counts nothing
		swallow    bool                    // a strike swallows rather than rewrites the word
	}{
		{tr: New(target, DefaultPayloadBits, l)},
		{tr: NewDropper(target, l), swallow: true},
		{tr: NewMisrouter(target, hijack, l), skipBroken: true},
		{tr: NewThrottledDropper(target, l, 10, 4), swallow: true,
			onDuty: during([2]uint64{1, 4}, [2]uint64{11, 14}, [2]uint64{21, 24}, [2]uint64{31, 34}, [2]uint64{41, 44})},
		{tr: colluder, swallow: true,
			onDuty: during([2]uint64{1, 5}, [2]uint64{16, 20}, [2]uint64{31, 35})},
	}
	for _, tc := range cases {
		tr := tc.tr
		t.Run(tr.Kind().String(), func(t *testing.T) {
			tr.Reset()
			tr.SetKillSwitch(true)
			var matches, strikes uint64
			want := Active
			for c := uint64(0); c < cycles; c++ {
				word := head
				if c%5 == 3 {
					word = broken
				}
				sighted := !(tc.skipBroken && word == broken)
				strike := sighted && (tc.onDuty == nil || tc.onDuty(c))
				if sighted {
					matches++
				}
				if strike {
					strikes++
					want = Attacking
				}
				got, oc := tr.Strike(c, word, fault.Framing{Head: true})
				if swallowed := oc == fault.Swallow; swallowed != (strike && tc.swallow) {
					t.Fatalf("cycle %d: outcome %v, want a swallow: %v", c, oc, strike && tc.swallow)
				}
				if changed := got != word; changed != (strike && !tc.swallow) {
					t.Fatalf("cycle %d: word changed: %v, want %v", c, changed, strike && !tc.swallow)
				}
				if m, s := tr.Stats(); m != matches || s != strikes {
					t.Fatalf("cycle %d: %d matches / %d strikes, want %d / %d", c, m, s, matches, strikes)
				}
				if tr.State() != want {
					t.Fatalf("cycle %d: state %v, want %v", c, tr.State(), want)
				}
			}
			if strikes == 0 || (tc.onDuty != nil && strikes == matches) {
				t.Fatalf("%d strikes of %d matches: the stream misses the gate", strikes, matches)
			}
		})
	}
}
