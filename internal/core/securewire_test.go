package core

import (
	"testing"

	"tasp/internal/detect"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/lob"
	"tasp/internal/tasp"
)

func targetFlit(dst uint8) flit.Flit {
	h := flit.Header{Kind: flit.Single, VC: 1, SrcR: 3, DstR: dst, Mem: 0x0900beef, Seq: 9}
	return flit.Flit{Kind: flit.Single, Payload: flit.Default.Encode(h), PacketID: 42}
}

func TestSecureWireHealthyPassThrough(t *testing.T) {
	w := NewSecureWire(nil, 1, flit.Default)
	f := targetFlit(9)
	got, res := w.Transmit(0, f, 1, 0)
	if !res.OK || res.Stall != 0 || got.Payload != f.Payload {
		t.Fatalf("healthy wire: %+v", res)
	}
	if w.Detector.Classification() != detect.Healthy {
		t.Fatal("healthy link classified otherwise")
	}
}

// TestSecureWireDefeatsTrojan walks the full Figure 6/7 sequence against a
// live TASP trojan: strike, plain retry strike, BIST, obfuscated success,
// method logged, and the flow's next flit passes on its first attempt.
func TestSecureWireDefeatsTrojan(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 2, flit.Default)

	f := targetFlit(9)
	// Attempt 0: plain, struck.
	_, res := w.Transmit(10, f, 1, 0)
	if res.OK {
		t.Fatal("attempt 0 should be struck")
	}
	// Attempt 1: plain retry, struck again; detector calls BIST.
	_, res = w.Transmit(12, f, 1, 1)
	if res.OK {
		t.Fatal("attempt 1 should be struck")
	}
	if w.BISTScans != 1 {
		t.Fatalf("BIST scans %d, want 1", w.BISTScans)
	}
	// Attempt 2: first escalation (scramble/flit) hides the target.
	got, res := w.Transmit(14, f, 1, 2)
	if !res.OK {
		t.Fatal("scrambled attempt should pass")
	}
	if got.Payload != f.Payload {
		t.Fatalf("payload corrupted through obfuscation: %016x != %016x", got.Payload, f.Payload)
	}
	if res.Stall != lob.Scramble.Penalty() {
		t.Fatalf("stall %d, want scramble penalty %d", res.Stall, lob.Scramble.Penalty())
	}
	if w.Detector.Classification() != detect.Trojan {
		t.Fatalf("classification %v, want trojan", w.Detector.Classification())
	}
	// The method is logged: the flow's next flit obfuscates on attempt 0.
	f2 := targetFlit(9)
	f2.PacketID = 43
	got, res = w.Transmit(20, f2, 1, 0)
	if !res.OK || res.Stall == 0 {
		t.Fatalf("logged method not applied on first attempt: %+v", res)
	}
	if got.Payload != f2.Payload {
		t.Fatal("payload corrupted under logged method")
	}
	if _, injections := ht.Stats(); injections != 2 {
		t.Fatalf("trojan injections %d, want exactly the 2 plain strikes", injections)
	}
}

func TestSecureWireUnmitigatedKeepsFailing(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 3, flit.Default)
	w.Mitigated = false
	f := targetFlit(9)
	for attempt := 0; attempt < 50; attempt++ {
		if _, res := w.Transmit(uint64(attempt), f, 1, attempt); res.OK {
			t.Fatalf("unmitigated wire delivered target flit at attempt %d", attempt)
		}
	}
	if w.BISTScans != 0 || w.Obfuscated != 0 {
		t.Fatal("unmitigated wire used mitigation hardware")
	}
}

func TestSecureWireNonTargetUnaffected(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 4, flit.Default)
	f := targetFlit(5) // different destination
	for i := 0; i < 20; i++ {
		got, res := w.Transmit(uint64(i), f, 1, 0)
		if !res.OK || res.Stall != 0 || got.Payload != f.Payload {
			t.Fatalf("non-target flit disturbed at %d: %+v", i, res)
		}
	}
}

func TestSecureWireCorrectsTransients(t *testing.T) {
	w := NewSecureWire(fault.NewTransient(3e-3, 5), 5, flit.Default)
	f := targetFlit(2)
	okCount, corrected := 0, 0
	for i := 0; i < 5000; i++ {
		got, res := w.Transmit(uint64(i), f, 1, 0)
		if res.OK {
			okCount++
			if got.Payload != f.Payload {
				t.Fatal("corrected flit has wrong payload")
			}
		}
		if res.Corrected {
			corrected++
		}
	}
	if corrected == 0 {
		t.Fatal("no corrections at BER 3e-3")
	}
	if okCount < 4800 {
		t.Fatalf("only %d/5000 traversals delivered", okCount)
	}
}

func TestSecureWirePermanentFaultClassified(t *testing.T) {
	// Two stuck wires: uncorrectable on many words; the detector must run
	// BIST and classify the link permanent.
	w := NewSecureWire(fault.NewStuckAt(map[int]uint{10: 1, 30: 1}), 6, flit.Default)
	f := flit.Flit{Kind: flit.Single, Payload: 0, PacketID: 7} // all-zero word collides with both stucks
	for attempt := 0; attempt < 3; attempt++ {
		w.Transmit(uint64(attempt), f, 0, attempt)
	}
	if w.Detector.Classification() != detect.Permanent {
		t.Fatalf("classification %v, want permanent", w.Detector.Classification())
	}
}

func TestSecureWireBodyFlitFlowTracking(t *testing.T) {
	ht := tasp.New(tasp.ForDest(9), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 7, flit.Default)

	// Deliver the head under escalation so the method gets logged.
	head := flit.Flit{Kind: flit.Head, PacketID: 99, Index: 0,
		Payload: flit.Default.Encode(flit.Header{Kind: flit.Head, VC: 2, SrcR: 1, DstR: 9})}
	w.Transmit(0, head, 2, 0)
	w.Transmit(2, head, 2, 1)
	if _, res := w.Transmit(4, head, 2, 2); !res.OK {
		t.Fatal("head not delivered under scramble")
	}
	// A body flit of the same packet, stamped with the packet's header as
	// the forwarding router stamps it, must resolve to the same flow and be
	// obfuscated on its first attempt via the log.
	body := flit.Flit{Kind: flit.Body, PacketID: 99, Index: 1, Payload: 0xbeef, SrcR: 1, DstR: 9, VC: 2}
	got, res := w.Transmit(6, body, 2, 0)
	if !res.OK || res.Stall == 0 {
		t.Fatalf("body flit did not use the logged method: %+v", res)
	}
	if got.Payload != 0xbeef {
		t.Fatal("body payload corrupted")
	}
}

// TestSecureWireFlowRules pins where each flit's flow comes from: a head
// (or single) flit's header on every attempt, a body flit's stamp on every
// attempt, a tail's stamp on its first attempt and, once the L-Ob
// controller has released the VC's flow, an unknown flow on the link VC.
func TestSecureWireFlowRules(t *testing.T) {
	w := NewSecureWire(nil, 1, flit.Default)
	// Every flit's payload encodes one flow and its stamp names another, so
	// each case shows which of the two the wire read.
	mk := func(k flit.Type) flit.Flit {
		return flit.Flit{Kind: k, Payload: flit.Default.Encode(flit.Header{Kind: k, VC: 2, SrcR: 1, DstR: 9}),
			SrcR: 4, DstR: 6, VC: 1}
	}
	declared := lob.FlowKey{SrcR: 1, DstR: 9, VC: 2}
	stamped := lob.FlowKey{SrcR: 4, DstR: 6, VC: 1}
	const vc = 3 // the link VC the flit crosses on
	for _, c := range []struct {
		name    string
		f       flit.Flit
		attempt int
		want    lob.FlowKey
	}{
		{"head", mk(flit.Head), 0, declared},
		{"retried head", mk(flit.Head), 1, declared},
		{"single", mk(flit.Single), 0, declared},
		{"retried single", mk(flit.Single), 2, declared},
		{"body", mk(flit.Body), 0, stamped},
		{"retried body", mk(flit.Body), 2, stamped},
		{"tail", mk(flit.Tail), 0, stamped},
		{"retried tail", mk(flit.Tail), 1, lob.FlowKey{VC: vc}},
	} {
		if got := w.flowOf(&c.f, vc, c.attempt); got != c.want {
			t.Errorf("%s on attempt %d: flow %+v, want %+v", c.name, c.attempt, got, c.want)
		}
	}
}

func TestSecureWireForgetsFailedMethod(t *testing.T) {
	// If a logged method stops working (trojan retuned), the wire must
	// forget it and re-escalate rather than loop on the bad method.
	ht := tasp.New(tasp.ForVC(1), tasp.DefaultPayloadBits, flit.Default)
	ht.SetKillSwitch(true)
	w := NewSecureWire(ht, 8, flit.Default)
	flow := lob.FlowKey{SrcR: 3, DstR: 9, VC: 1}
	w.Log.Record(flow, lob.Choice{Method: lob.Invert, Gran: lob.PayloadOnly}) // useless vs a VC trigger
	f := targetFlit(9)
	if _, res := w.Transmit(0, f, 1, 0); res.OK {
		t.Fatal("payload-only invert should not hide a VC trigger")
	}
	if _, ok := w.Log.Lookup(flow); ok {
		t.Fatal("failed method not forgotten")
	}
}
