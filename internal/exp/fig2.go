package exp

import (
	"fmt"

	"tasp/internal/core"
	"tasp/internal/ecc"
	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/noc"
	"tasp/internal/reroute"
	"tasp/internal/tasp"
)

// Figure2 reproduces the paper's Figure 2: the latency effect of the three
// link-fault classes — transient (ECC absorbs or one retransmission),
// permanent (reroute, +hops), and a TASP trojan (trojan-defined delay; with
// L-Ob, a 1-3 cycle obfuscation penalty instead of unbounded stalling) — as
// a function of source-destination distance, with the fault on the first
// hop.
type Figure2 struct {
	Distances []int
	Clean     []float64 // baseline latency per distance
	Transient []float64 // one uncorrectable transient on the first hop
	Permanent []float64 // first hop disabled, rerouted
	TrojanLOb []float64 // armed trojan on first hop, L-Ob mitigation
	// TrojanFirst is the latency of the very first targeted packet, which
	// pays the full detect-and-escalate sequence.
	TrojanFirst []float64
}

// fig2Dests are destinations at hop distances 1..6 from router 0 whose XY
// path crosses link 0->1.
var fig2Dests = []int{1, 2, 3, 7, 11, 15}

// eastLink finds the directed link 0->1.
func eastLink(n *noc.Network) noc.LinkInfo {
	for _, l := range n.LinkSlice() {
		if l.From == 0 && l.FromPort == noc.PortEast {
			return l
		}
	}
	panic("exp: mesh without 0->east link")
}

// oneShot returns an adversary that corrupts exactly its first head flit
// with a double-bit (uncorrectable) error.
func oneShot() fault.Adversary {
	done := false
	return fault.ForwardFunc(func(_ uint64, w ecc.Codeword, fr fault.Framing) ecc.Codeword {
		if done || !fr.Head {
			return w
		}
		done = true
		return w.Flip(5).Flip(50)
	})
}

// measure runs a single packet 0->dst through the prepared network and
// returns its latency.
func measure(n *noc.Network, dst int) float64 {
	before := n.Counters.DeliveredPackets
	p := &flit.Packet{Hdr: flit.Header{DstR: uint8(dst), Mem: 0x100}}
	if !n.Inject(0, p) {
		panic("exp: injection failed on an idle network")
	}
	start := n.Counters.LatencySum
	for i := 0; i < 2000; i++ {
		n.Step()
		if n.Counters.DeliveredPackets > before {
			return float64(n.Counters.LatencySum - start)
		}
	}
	return -1 // undelivered: the unmitigated-trojan case
}

// RunFigure2 builds the latency-vs-distance series.
func RunFigure2() *Figure2 {
	cfg := noc.DefaultConfig()
	out := &Figure2{}
	for i, dst := range fig2Dests {
		out.Distances = append(out.Distances, i+1)

		// Clean baseline.
		n, _ := noc.New(cfg)
		out.Clean = append(out.Clean, measure(n, dst))

		// Transient: one uncorrectable upset on the first hop.
		n, _ = noc.New(cfg)
		w := noc.NewPlainWire()
		w.Tap = oneShot()
		n.SetWire(eastLink(n).ID, w)
		out.Transient = append(out.Transient, measure(n, dst))

		// Permanent: first hop disabled, table rebuilt around it.
		n, _ = noc.New(cfg)
		if _, err := reroute.Apply(n, map[int]bool{eastLink(n).ID: true}); err != nil {
			panic(err)
		}
		out.Permanent = append(out.Permanent, measure(n, dst))

		// Trojan with L-Ob: the first packet pays detection + escalation,
		// later packets only the logged-method penalty.
		n, _ = noc.New(cfg)
		ht := tasp.New(tasp.ForDest(uint8(dst)), tasp.DefaultPayloadBits, n.Layout())
		ht.SetKillSwitch(true)
		sw := core.NewSecureWire(ht, 42, n.Layout())
		n.SetWire(eastLink(n).ID, sw)
		out.TrojanFirst = append(out.TrojanFirst, measure(n, dst))
		out.TrojanLOb = append(out.TrojanLOb, measure(n, dst))
	}
	return out
}

// TableOf renders the figure as a latency table.
func (f *Figure2) TableOf() Table {
	t := Table{
		Title: "Figure 2: latency (cycles) vs distance for transient, permanent and TASP faults on the first hop",
		Columns: []string{"hops", "clean", "transient(+retx)", "permanent(+reroute)",
			"tasp first(+detect)", "tasp steady(+l-ob)"},
		Notes: []string{
			"transient pays one 1-3 cycle retransmission (Section III-B)",
			"permanent pays extra hops around the disabled link",
			"the first targeted packet pays plain retry + BIST + escalation; later packets only the logged obfuscation penalty (1-3 cycles)",
		},
	}
	for i := range f.Distances {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", f.Distances[i]),
			f1(f.Clean[i]), f1(f.Transient[i]), f1(f.Permanent[i]),
			f1(f.TrojanFirst[i]), f1(f.TrojanLOb[i]),
		})
	}
	return t
}
