package logictest

import (
	"testing"

	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/tasp"
)

func TestKillSwitchHidesFromLogicTesting(t *testing.T) {
	// Even the most easily excited trigger (2-bit VC) is invisible while
	// the kill switch is off — the paper's stated reason for the killsw.
	ht := tasp.New(tasp.ForVC(1), tasp.DefaultPayloadBits, flit.Default)
	r := Campaign{Vectors: 100000}.Run(ht, 1)
	if r.Detected() {
		t.Fatalf("dormant trojan triggered %d times", r.Triggers)
	}
}

func TestNarrowTriggerCaughtQuickly(t *testing.T) {
	ht := tasp.New(tasp.ForVC(1), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	r := Campaign{Vectors: 1000}.Run(ht, 2)
	if !r.Detected() {
		t.Fatal("armed 2-bit trigger survived 1000 random vectors")
	}
	// P(match) = 1/4: expect first trigger within a few vectors.
	if r.FirstAt > 50 {
		t.Fatalf("first trigger at vector %d, expected within ~4", r.FirstAt)
	}
	if r.TriggerPr < 0.15 || r.TriggerPr > 0.35 {
		t.Fatalf("trigger probability %.3f, want ~0.25", r.TriggerPr)
	}
}

func TestWideTriggerEvadesRandomVectors(t *testing.T) {
	// The Full 42-bit comparator: 2^-42 per vector. 100k vectors see
	// nothing.
	ht := tasp.New(tasp.ForFull(3, 9, 1, 0xdead0000, 0xffffffff), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	r := Campaign{Vectors: 100000}.Run(ht, 3)
	if r.Detected() {
		t.Fatalf("42-bit trigger excited %d times in 100k vectors", r.Triggers)
	}
}

func TestMemTriggerWithWideMask(t *testing.T) {
	// A 16-bit address window: caught with enough vectors (2^16 expected),
	// evaded by short campaigns.
	target := tasp.ForMem(0x12340000, 0xffff0000)
	short := tasp.New(target, tasp.DefaultPayloadBits, flit.Default)
	short.SetKillSwitch(true)
	if r := (Campaign{Vectors: 1000}).Run(short, 4); r.Detected() {
		t.Logf("short campaign got lucky at vector %d (p~1.5%%)", r.FirstAt)
	}
	long := tasp.New(target, tasp.DefaultPayloadBits, flit.Default)
	long.SetKillSwitch(true)
	if r := (Campaign{Vectors: 500000}).Run(long, 5); !r.Detected() {
		t.Fatal("16-bit window not excited in 500k vectors (expected ~8 hits)")
	}
}

func TestDirectedVectorsStillFramed(t *testing.T) {
	// Directed campaigns must behave (no panic, sane stats) and remain
	// unable to excite a dormant trojan.
	ht := tasp.New(tasp.ForDest(3), tasp.DefaultPayloadBits, flit.Default)
	r := Campaign{Vectors: 5000, Directed: true}.Run(ht, 6)
	if r.Detected() || r.Vectors != 5000 {
		t.Fatalf("directed campaign misbehaved: %+v", r)
	}
}

func TestCleanLinkNeverTriggers(t *testing.T) {
	r := Campaign{Vectors: 10000}.Run(fault.None, 7)
	if r.Detected() {
		t.Fatal("clean link corrupted vectors")
	}
}

// TestStuckAtCaughtByLogicTesting contrasts the trojan with a permanent
// fault: stuck wires corrupt roughly half of all vectors.
func TestStuckAtCaughtByLogicTesting(t *testing.T) {
	r := Campaign{Vectors: 1000}.Run(fault.NewStuckAt(map[int]uint{7: 1}), 8)
	if !r.Detected() || r.TriggerPr < 0.3 {
		t.Fatalf("stuck wire not exposed: %+v", r)
	}
}

func TestSwallowCountsAsTrigger(t *testing.T) {
	// A drop trojan forwards nothing it matches: the vector vanishes with a
	// forged ACK instead of arriving corrupted, and that is a trigger too.
	d := tasp.NewDropper(tasp.ForVC(1), flit.Default)
	d.SetKillSwitch(true)
	r := Campaign{Vectors: 1000}.Run(d, 2)
	if r.TriggerPr < 0.15 || r.TriggerPr > 0.35 {
		t.Fatalf("armed 2-bit drop trigger fired with probability %.3f, want ~0.25", r.TriggerPr)
	}
}
