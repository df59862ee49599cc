package tasp

import (
	"reflect"
	"slices"
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// TestSnapshotRoundTrip is the trojan half of the rerouting twin fork
// (core.RunGroup): a trojan armed and striking mid-run, saved, and restored
// onto a reset trojan of the same construction, strikes exactly as the
// original does from then on, with the same statistics, FSM state and kill
// switch. Every family is covered; the flip family's payload counter is
// left mid-sequence, so a restore that dropped it would flip other wires.
func TestSnapshotRoundTrip(t *testing.T) {
	const victim = 5
	target := ForDest(victim)
	l := flit.Default
	coord := NewCollusion(20)
	build := []func() Trojan{
		func() Trojan { return New(target, DefaultPayloadBits, l) },
		func() Trojan { return NewDropper(target, l) },
		func() Trojan { return NewMisrouter(target, 12, l) },
		func() Trojan { return NewThrottledDropper(target, l, 30, 10) },
		func() Trojan {
			d := NewColludingDropper(target, l, coord)
			d.SetRole(1, 2)
			return d
		},
	}
	for _, mk := range build {
		orig, twin := mk(), mk()
		t.Run(orig.Kind().String(), func(t *testing.T) {
			rng := xrand.New(uint64(orig.Kind()) + 7)
			word := func() (ecc.Codeword, fault.Framing) {
				h := flit.Header{Kind: flit.Head, DstR: uint8(rng.Intn(16)), SrcR: uint8(rng.Intn(16)), Mem: uint32(rng.Uint64())}
				if rng.Bool(0.5) {
					h.DstR = victim
				}
				return ecc.Encode(l.Encode(h)), fault.Framing{Head: rng.Bool(0.8), Tail: rng.Bool(0.5)}
			}
			orig.SetKillSwitch(true)
			cycle := uint64(0)
			for ; cycle < 500; cycle++ {
				cw, fr := word()
				orig.Strike(cycle, cw, fr)
			}
			if _, strikes := orig.Stats(); strikes == 0 {
				t.Fatal("no strike before the save; the round trip is vacuous")
			}
			snap := orig.Save()
			twin.SetKillSwitch(true)
			twin.Reset()
			twin.Restore(snap)
			if twin.Save() != snap {
				t.Fatal("a restored trojan saves another snapshot")
			}
			before, _ := orig.Stats()
			for ; cycle < 1500; cycle++ {
				cw, fr := word()
				got, oc := orig.Strike(cycle, cw, fr)
				twinGot, twinOC := twin.Strike(cycle, cw, fr)
				if got != twinGot || oc != twinOC {
					t.Fatalf("cycle %d: the original strikes %+v (%v), the restored trojan %+v (%v)", cycle, got, oc, twinGot, twinOC)
				}
			}
			m, s := orig.Stats()
			tm, ts := twin.Stats()
			if m != tm || s != ts || orig.State() != twin.State() || orig.KillSwitch() != twin.KillSwitch() {
				t.Fatalf("original: %d matches, %d strikes, %v; restored: %d, %d, %v", m, s, orig.State(), tm, ts, twin.State())
			}
			if m == before {
				t.Fatal("no sighting after the restore; the comparison is vacuous")
			}
		})
	}
}

// TestTrojanClassifiesEveryField walks the trigger and every family field
// by field. The trigger's dynamic state is its embedded Snapshot, which
// Save returns, Restore assigns and Reset zeroes; everything else a trojan
// holds is fixed at construction or deployment. A field added to the
// trigger or to a family fails here until it is classified, so a family
// cannot grow state that a run-fork checkpoint forgets.
func TestTrojanClassifiesEveryField(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		fixed []string // construction and deployment
	}{
		{reflect.TypeFor[trigger](), []string{"target", "taps"}},
		{reflect.TypeFor[HT](), []string{"trigger", "yBits", "wires"}},
		{reflect.TypeFor[Dropper](), []string{"trigger", "kind", "period", "active"}},
		{reflect.TypeFor[Misrouter](), []string{"trigger", "layout", "hijack"}},
		{reflect.TypeFor[ColludingDropper](), []string{"trigger", "coord", "idx", "n"}},
	} {
		if f, ok := c.typ.FieldByName("Snapshot"); !ok || !f.Anonymous || f.Type != reflect.TypeFor[Snapshot]() {
			t.Errorf("%s does not carry the trigger's embedded Snapshot", c.typ.Name())
		}
		for i := 0; i < c.typ.NumField(); i++ {
			if name := c.typ.Field(i).Name; name != "Snapshot" && !slices.Contains(c.fixed, name) {
				t.Errorf("%s.%s is neither in the Snapshot nor listed as construction or deployment", c.typ.Name(), name)
			}
		}
	}
}
