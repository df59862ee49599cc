package detect

import (
	"testing"

	"tasp/internal/bist"
	"tasp/internal/fault"
	"tasp/internal/lob"
)

func key(p uint64, i uint8) FlitKey { return FlitKey{PacketID: p, Index: i} }

var plain = lob.Choice{Method: lob.None}

func TestHealthyUntilFault(t *testing.T) {
	d := New(0)
	if d.Classification() != Healthy {
		t.Fatalf("fresh detector is %v", d.Classification())
	}
}

func TestFirstFaultJustRetransmits(t *testing.T) {
	d := New(0)
	act := d.OnFault(key(1, 0), plain)
	if act.RunBIST || act.Obfuscate {
		t.Fatalf("first fault over-reacted: %+v", act)
	}
	if d.Classification() != Transient {
		t.Fatalf("classification %v, want transient", d.Classification())
	}
	if len(d.history) != 1 {
		t.Fatalf("history len %d", len(d.history))
	}
}

func TestRepeatedFaultEscalates(t *testing.T) {
	d := New(0)
	d.OnFault(key(1, 0), plain)
	act := d.OnFault(key(1, 0), plain)
	if !act.RunBIST || !act.Obfuscate {
		t.Fatalf("repeat fault did not escalate: %+v", act)
	}
	if d.Classification() != Suspect {
		t.Fatalf("classification %v, want suspect", d.Classification())
	}
	// Once BIST has run, further faults must not re-request it.
	d.SetBISTResult(bist.Scan(0, fault.None))
	act = d.OnFault(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.WholeFlit})
	if act.RunBIST {
		t.Fatal("BIST re-requested after completion")
	}
	if !act.Obfuscate {
		t.Fatal("obfuscation dropped on third fault")
	}
}

func TestTrojanClassification(t *testing.T) {
	// The paper's discovery sequence: repeated faults on one flit, BIST
	// clean, then a clean arrival under obfuscation => hardware trojan.
	d := New(0)
	d.OnFault(key(7, 0), plain)
	d.OnFault(key(7, 0), plain)
	d.SetBISTResult(bist.Scan(0, fault.None))
	d.OnClean(key(7, 0), lob.Choice{Method: lob.Scramble, Gran: lob.WholeFlit})
	if d.Classification() != Trojan {
		t.Fatalf("classification %v, want trojan", d.Classification())
	}
	if len(d.history) != 0 {
		t.Fatal("delivered flit left in history")
	}
}

func TestPermanentClassification(t *testing.T) {
	d := New(0)
	d.OnFault(key(3, 0), plain)
	d.OnFault(key(3, 0), plain)
	d.SetBISTResult(bist.Scan(0, fault.NewStuckAt(map[int]uint{4: 1, 9: 0})))
	if d.Classification() != Permanent {
		t.Fatalf("classification %v, want permanent", d.Classification())
	}
	if !d.bistDone || !d.bistReport.Permanent() {
		t.Fatal("BIST report not retained")
	}
}

func TestTransientStaysTransient(t *testing.T) {
	d := New(0)
	// Many distinct flits fault once each — background upsets.
	for i := uint64(0); i < 20; i++ {
		act := d.OnFault(key(i, 0), plain)
		if act.Obfuscate {
			t.Fatalf("isolated fault %d triggered obfuscation", i)
		}
	}
	if d.Classification() != Transient {
		t.Fatalf("classification %v, want transient", d.Classification())
	}
}

func TestCleanPlainArrivalIsNoop(t *testing.T) {
	d := New(0)
	d.OnClean(key(1, 0), plain)
	if d.Classification() != Healthy || len(d.granOK) != 0 {
		t.Fatal("plain clean arrival mutated detector state")
	}
}

func TestHistoryEviction(t *testing.T) {
	d := New(4)
	for i := uint64(0); i < 10; i++ {
		d.OnFault(key(i, 0), plain)
	}
	if len(d.history) != 4 {
		t.Fatalf("history len %d, cap 4", len(d.history))
	}
	// The oldest entries were evicted: a repeat of flit 0 now looks new.
	act := d.OnFault(key(0, 0), plain)
	if act.Obfuscate {
		t.Fatal("evicted flit treated as repeat")
	}
	// But a repeat of a recent one escalates.
	act = d.OnFault(key(9, 0), plain)
	if !act.Obfuscate {
		t.Fatal("recent repeat not escalated")
	}
}

func TestTriggerScopeLocalisation(t *testing.T) {
	d := New(0)
	if d.TriggerScope() != "unknown" {
		t.Fatalf("fresh scope %q", d.TriggerScope())
	}
	// Header-only obfuscation succeeds, payload-only fails: the trigger
	// taps header wires.
	d.OnFault(key(1, 0), plain)
	d.OnFault(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.PayloadOnly})
	d.OnClean(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.HeaderOnly})
	if d.TriggerScope() != "header" {
		t.Fatalf("scope %q, want header", d.TriggerScope())
	}
}

// TestTriggerScopeFirstFaultObfuscated is the regression test for the
// OnFault first-fault path: the first observation of a flit can already be
// obfuscated (attempt 0 replays the flow's logged method; eviction can erase
// a flit's record between retries). That failure is granularity evidence and
// must land in granFail even though the history lookup misses.
func TestTriggerScopeFirstFaultObfuscated(t *testing.T) {
	d := New(0)
	// First observed fault: header-only obfuscation already applied (the
	// flow's logged method) and defeated — the trigger survives a scrambled
	// header, so it taps the payload.
	d.OnFault(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.HeaderOnly})
	// A later attempt under payload-only obfuscation gets through.
	d.OnClean(key(1, 0), lob.Choice{Method: lob.Scramble, Gran: lob.PayloadOnly})
	if got := d.TriggerScope(); got != "payload" {
		t.Fatalf("scope %q, want payload (first-fault obfuscation evidence dropped?)", got)
	}
}

// TestEvictionKeepsMemoryStable asserts the fault-history backing array is
// allocated once and never grows, no matter how many evictions a sustained
// attack forces through the table.
func TestEvictionKeepsMemoryStable(t *testing.T) {
	const cap_ = 8
	d := New(cap_)
	for i := uint64(0); i < cap_; i++ {
		d.OnFault(key(i, 0), plain)
	}
	base := cap(d.history)
	for i := uint64(cap_); i < 100*cap_; i++ {
		d.OnFault(key(i, 0), plain)
	}
	if len(d.history) != cap_ {
		t.Fatalf("history len %d, cap %d", len(d.history), cap_)
	}
	if got := cap(d.history); got != base {
		t.Fatalf("backing array grew: cap %d -> %d after sustained eviction", base, got)
	}
	if len(d.index) != cap_ {
		t.Fatalf("index holds %d keys, want %d", len(d.index), cap_)
	}
	// Steady-state insert allocates only the record itself, never the slice.
	i := uint64(1000)
	if avg := testing.AllocsPerRun(100, func() {
		d.OnFault(key(i, 0), plain)
		i++
	}); avg > 3 {
		t.Fatalf("steady-state OnFault averages %.1f allocs, want <= 3", avg)
	}
}

// TestCounters pins the detector's counts: a flit's record counts its
// faults, a repeat of one makes the link suspect, and the obfuscated clean
// arrival that retires the record counts as evidence for its granularity.
func TestCounters(t *testing.T) {
	d := New(0)
	d.OnFault(key(1, 0), plain)
	if act := d.OnFault(key(1, 0), plain); act != (Action{RunBIST: true, Obfuscate: true}) {
		t.Fatalf("repeated fault asked for %+v", act)
	}
	if r := d.index[key(1, 0)]; r == nil || r.faults != 2 {
		t.Fatalf("record after two faults: %+v, want 2 faults", r)
	}
	if d.Classification() != Suspect {
		t.Fatalf("classification %v after a repeated fault, want suspect", d.Classification())
	}
	d.OnClean(key(1, 0), lob.Choice{Method: lob.Invert, Gran: lob.WholeFlit})
	if d.index[key(1, 0)] != nil || len(d.history) != 0 {
		t.Fatal("clean arrival did not retire the flit's record")
	}
	if d.granOK[lob.WholeFlit] != 1 || len(d.granOK) != 1 || len(d.granFail) != 0 {
		t.Fatalf("granularity evidence ok=%v fail=%v, want one whole-flit success", d.granOK, d.granFail)
	}
}

func TestClassificationStrings(t *testing.T) {
	want := map[Classification]string{
		Healthy: "healthy", Transient: "transient", Permanent: "permanent",
		Trojan: "trojan", Suspect: "suspect",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d = %q want %q", c, c.String(), s)
		}
	}
}
