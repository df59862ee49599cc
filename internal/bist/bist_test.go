package bist

import (
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/tasp"
)

func TestCleanLink(t *testing.T) {
	rep := Scan(0, fault.None)
	if rep.Permanent() || len(rep.Stuck) != 0 || rep.Inconsistent != 0 {
		t.Fatalf("clean link reported %+v", rep)
	}
	if rep.PatternsRun == 0 {
		t.Fatal("no patterns run")
	}
}

func TestFindsStuckWires(t *testing.T) {
	inj := fault.NewStuckAt(map[int]uint{5: 1, 40: 0, 70: 1})
	rep := Scan(0, inj)
	if len(rep.Stuck) != 3 {
		t.Fatalf("found %d stuck wires, want 3: %+v", len(rep.Stuck), rep.Stuck)
	}
	want := map[int]uint{5: 1, 40: 0, 70: 1}
	for _, s := range rep.Stuck {
		if v, ok := want[s.Pos]; !ok || v != s.Value {
			t.Fatalf("wrong stuck wire %+v", s)
		}
	}
	if !rep.Permanent() {
		t.Fatal("permanent not reported")
	}
}

func TestEveryWirePositionDetectable(t *testing.T) {
	for pos := 0; pos < ecc.CodewordBits; pos += 7 {
		for _, v := range []uint{0, 1} {
			rep := Scan(0, fault.NewStuckAt(map[int]uint{pos: v}))
			if len(rep.Stuck) != 1 || rep.Stuck[0].Pos != pos || rep.Stuck[0].Value != v {
				t.Fatalf("stuck(%d=%d) not isolated: %+v", pos, v, rep.Stuck)
			}
		}
	}
}

func TestTransientNoiseNotPermanent(t *testing.T) {
	// A fairly noisy transient injector must not be classified stuck.
	rep := Scan(0, fault.NewTransient(5e-4, 3))
	if rep.Permanent() {
		t.Fatalf("transient noise classified permanent: %+v", rep.Stuck)
	}
}

// TestTrojanEvadesBIST verifies the paper's premise that logic testing has
// a limited chance of exposing a dormant or target-gated trojan: scanning a
// link carrying an armed TASP must not classify the link as permanently
// faulty (the trojan's strikes are inconsistent, not stuck-at), and a
// disarmed trojan is completely invisible.
func TestTrojanEvadesBIST(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	rep := Scan(0, ht) // kill switch off: dormant
	if rep.Permanent() || rep.Inconsistent != 0 {
		t.Fatalf("dormant trojan visible to BIST: %+v", rep)
	}
	ht.SetKillSwitch(true)
	rep = Scan(0, ht)
	if rep.Permanent() {
		t.Fatalf("armed trojan misclassified as permanent fault: %+v", rep.Stuck)
	}
}

// TestTrojanWithAliasingTargetStaysInconsistent drives a trojan whose
// target aliases the all-zero walking patterns; its strikes show up as
// inconsistent wires, not stuck ones.
func TestTrojanWithAliasingTargetStaysInconsistent(t *testing.T) {
	ht := tasp.New(tasp.ForDest(0), tasp.DefaultPayloadBits, flit.Default) // dest 0 = zeros
	ht.SetKillSwitch(true)
	rep := Scan(0, ht)
	if rep.Permanent() {
		t.Fatalf("aliasing trojan classified permanent: %+v", rep.Stuck)
	}
	if ht.Injections == 0 {
		t.Skip("patterns never aliased the target (layout-dependent)")
	}
	if rep.Inconsistent == 0 {
		t.Fatal("trojan strikes during BIST left no inconsistency evidence")
	}
}

func TestStuckPlusTransient(t *testing.T) {
	chain := fault.Chain{
		fault.NewStuckAt(map[int]uint{11: 0}),
		fault.NewTransient(1e-4, 7),
	}
	rep := Scan(0, chain)
	found := false
	for _, s := range rep.Stuck {
		if s.Pos == 11 && s.Value == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stuck wire missed under transient noise: %+v", rep.Stuck)
	}
}
