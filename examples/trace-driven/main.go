// trace-driven shows the simulator's two advanced workload modes: recording
// a benchmark into a reusable binary trace and replaying it bit-identically,
// and closed-loop (request-reply) traffic with finite per-core request
// windows — then measures the same TASP attack under both.
package main

import (
	"bytes"
	"fmt"
	"log"

	"tasp/internal/core"
	"tasp/internal/flit"
	"tasp/internal/noc"
	taspht "tasp/internal/tasp"
	"tasp/internal/trace"
	"tasp/internal/traffic"
)

func main() {
	log.SetFlags(0)
	cfg := noc.DefaultConfig()
	model, err := traffic.Benchmark("blackscholes", cfg)
	if err != nil {
		log.Fatal(err)
	}

	// ---- record once, replay twice, prove determinism ----
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Record(w, model.Generator(1), 2000); err != nil {
		log.Fatal(err)
	}
	w.Close()
	fmt.Printf("recorded %d packets of blackscholes into a %d-byte trace\n", w.Count(), buf.Len())

	replay := func(attack bool) noc.Counters {
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		evs, err := r.ReadAll()
		if err != nil {
			log.Fatal(err)
		}
		pl := trace.NewPlayer(evs)
		n, err := noc.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		var ht *tspHT
		if attack {
			ht = arm(n, model)
		}
		for c := 0; c < 4000; c++ {
			if attack && c == 1000 {
				ht.on()
			}
			pl.Tick(n.Cycle(), func(core int, pk *flit.Packet) bool { return n.Inject(core, pk) })
			n.Step()
		}
		return n.Counters
	}
	a, b := replay(false), replay(false)
	fmt.Printf("replay determinism: run1 delivered %d, run2 delivered %d (identical: %v)\n",
		a.DeliveredPackets, b.DeliveredPackets, a == b)
	atk := replay(true)
	fmt.Printf("same trace under attack: delivered %d (%.0f%% of clean), %d retransmissions\n\n",
		atk.DeliveredPackets, 100*float64(atk.DeliveredPackets)/float64(a.DeliveredPackets),
		atk.Retransmissions)

	// ---- closed loop: the reverberation effect ----
	fmt.Println("closed-loop (request-reply, 4 MSHRs/core):")
	for _, withAttack := range []bool{false, true} {
		n, _ := noc.New(cfg)
		var ht *tspHT
		if withAttack {
			ht = arm(n, model)
			ht.on()
		}
		cl := traffic.NewClosedLoop(model, 1, 4)
		n.SetDelivered(cl.OnDeliver)
		for c := 0; c < 3000; c++ {
			cl.Tick(func(core int, p *flit.Packet) bool { return n.Inject(core, p) })
			n.Step()
		}
		fmt.Printf("  attack=%-5v transactions/cycle=%.3f outstanding=%d\n",
			withAttack, float64(cl.Completed)/3000, cl.Pending())
	}
}

// tspHT wraps the trojans armed on the victim's ingress links.
type tspHT struct{ hts []*taspht.HT }

func (h *tspHT) on() {
	for _, t := range h.hts {
		t.SetKillSwitch(true)
	}
}

// arm plants dest-0 trojans on the two hottest target-flow links.
func arm(n *noc.Network, model *traffic.Model) *tspHT {
	target := taspht.ForDest(0)
	out := &tspHT{}
	for _, id := range core.ChooseInfectedLinks(model, n.Config(), n.Links(), 2, target) {
		ht := taspht.New(target, taspht.DefaultPayloadBits, n.Layout())
		out.hts = append(out.hts, ht)
		n.SetWire(id, &noc.PlainWire{Tap: ht})
	}
	return out
}
