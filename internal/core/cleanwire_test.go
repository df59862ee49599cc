package core

import (
	"testing"

	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/lob"
	"tasp/internal/noc"
	"tasp/internal/xrand"
)

// identityFunc is an identity tap the wires cannot recognise as clean: it
// forces the full encode → strike → decode path the fault.None fast path
// skips, so the two can be compared traversal by traversal.
var identityFunc = fault.InjectorFunc(func(_ uint64, w ecc.Codeword, _ fault.Framing) ecc.Codeword { return w })

// traversal is one Transmit call of the differential stream.
type traversal struct {
	f       flit.Flit
	vc      uint8
	attempt int
}

// randomTraffic builds a stream of whole packets (single-flit and
// head/body/tail) with random headers, payloads and attempt counts.
func randomTraffic(seed uint64, packets int) []traversal {
	rng := xrand.New(seed)
	var out []traversal
	for id := uint64(0); id < uint64(packets); id++ {
		h := flit.Header{
			VC: uint8(rng.Intn(4)), SrcR: uint8(rng.Intn(16)), DstR: uint8(rng.Intn(16)),
			Mem: uint32(rng.Uint64()), Seq: uint8(id),
		}
		p := flit.Packet{ID: id, Hdr: h}
		for i := rng.Intn(5); i > 0; i-- {
			p.Body = append(p.Body, rng.Uint64())
		}
		for _, f := range p.Flits(flit.Default) {
			out = append(out, traversal{f: f, vc: h.VC, attempt: rng.Intn(4)})
		}
	}
	return out
}

// TestCleanWireFastPathMatchesFullCodec checks the clean-link fast path is
// byte-identical to the codec path it skips: PlainWire and SecureWire
// (mitigated and unmitigated) on fault.None must return the same flit and
// TxResult as on an identity InjectorFunc for every traversal, and end with
// the same counters, detector verdict and method log. Attempts 2 and up and
// a pre-logged flow make the mitigated wire obfuscate, which must take the
// full path on both.
func TestCleanWireFastPathMatchesFullCodec(t *testing.T) {
	stream := randomTraffic(11, 400)

	fast, full := &noc.PlainWire{Tap: fault.None}, &noc.PlainWire{Tap: identityFunc}
	for i, tr := range stream {
		gf, rf := fast.Transmit(uint64(i), tr.f, tr.vc, tr.attempt)
		gs, rs := full.Transmit(uint64(i), tr.f, tr.vc, tr.attempt)
		if gf != gs || rf != rs {
			t.Fatalf("PlainWire traversal %d: fast (%+v, %+v) != full (%+v, %+v)", i, gf, rf, gs, rs)
		}
	}
	if fast.Corrected != full.Corrected || fast.Dropped != full.Dropped || fast.Swallowed != full.Swallowed {
		t.Fatalf("PlainWire counters: fast %+v, full %+v", *fast, *full)
	}

	logged := lob.FlowKey{SrcR: stream[0].f.Header(&flit.Default).SrcR,
		DstR: stream[0].f.Header(&flit.Default).DstR, VC: stream[0].vc}
	for _, mitigated := range []bool{false, true} {
		fast := NewSecureWire(fault.None, 5, flit.Default).WithMitigation(mitigated)
		full := NewSecureWire(identityFunc, 5, flit.Default).WithMitigation(mitigated)
		if mitigated {
			c := lob.Choice{Method: lob.Invert, Gran: lob.HeaderOnly}
			fast.Log.Record(logged, c)
			full.Log.Record(logged, c)
		}
		for i, tr := range stream {
			gf, rf := fast.Transmit(uint64(i), tr.f, tr.vc, tr.attempt)
			gs, rs := full.Transmit(uint64(i), tr.f, tr.vc, tr.attempt)
			if gf != gs || rf != rs {
				t.Fatalf("SecureWire(mitigated=%v) traversal %d: fast (%+v, %+v) != full (%+v, %+v)",
					mitigated, i, gf, rf, gs, rs)
			}
		}
		type counters struct {
			corrected, dropped, swallowed, obfuscated, bist, stall, hits uint64
			logLen                                                       int
			class                                                        string
		}
		snap := func(w *SecureWire) counters {
			return counters{w.Corrected, w.Dropped, w.Swallowed, w.Obfuscated, w.BISTScans, w.StallCycles,
				w.Log.Hits, w.Log.Len(), w.Detector.Classification().String()}
		}
		if a, b := snap(fast), snap(full); a != b {
			t.Fatalf("SecureWire(mitigated=%v) state: fast %+v, full %+v", mitigated, a, b)
		}
		if mitigated && fast.Obfuscated == 0 {
			t.Fatal("the stream never exercised an obfuscated traversal")
		}
	}
}
