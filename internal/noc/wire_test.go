package noc

import (
	"testing"

	"tasp/internal/fault"
	"tasp/internal/flit"
	"tasp/internal/tasp"
	"tasp/internal/xrand"
)

// countingWire tallies the outcomes of the wire it decorates: a second set
// of books to hold the network's against.
type countingWire struct {
	w                            Wire
	corrected, nacked, swallowed uint64
}

// Transmit implements Wire.
func (c *countingWire) Transmit(cycle uint64, f flit.Flit, vc uint8, attempt int) (flit.Flit, TxResult) {
	f, res := c.w.Transmit(cycle, f, vc, attempt)
	if res.Corrected {
		c.corrected++
	}
	if !res.OK {
		c.nacked++
	}
	if res.Swallowed {
		c.swallowed++
	}
	return f, res
}

// TestNetworkBooksEveryTxResult checks that the network is the one ledger
// of link outcomes. Every link's wire, healthy or faulty (transient upsets,
// flip trojans, drop trojans), is wrapped in a counting decorator for a
// random loaded run, and the TxResults the decorators saw must sum to the
// network's books: corrected to CorrectedFaults, NACKed to Retransmissions,
// globally and per link, and swallowed to DroppedInFlight.
func TestNetworkBooksEveryTxResult(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		n := mkNet(t)
		cfg := n.Config()
		rng := xrand.New(seed)
		wires := make([]*countingWire, len(n.links))
		for _, l := range n.LinkSlice() {
			inner := n.LinkOutput(l.ID).wire // the healthy wire New installed
			dst := tasp.ForDest(uint8(rng.Intn(cfg.Routers())))
			switch rng.Intn(4) {
			case 0:
				inner = &PlainWire{Tap: fault.NewTransient(0.01, seed<<8|uint64(l.ID))}
			case 1:
				ht := tasp.New(dst, 2, n.Layout())
				ht.SetKillSwitch(true)
				inner = &PlainWire{Tap: ht}
			case 2:
				d := tasp.NewDropper(dst, n.Layout())
				d.SetKillSwitch(true)
				inner = &PlainWire{Tap: d}
			}
			wires[l.ID] = &countingWire{w: inner}
			n.SetWire(l.ID, wires[l.ID])
		}
		inject := func(c int, p *flit.Packet) { n.Inject(c, p) }
		for cycle := 0; cycle < 1500; cycle++ {
			fuzzLoad(rng, &cfg, 0.02, inject)
			n.Step()
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var sum countingWire
		for id, w := range wires {
			if got := n.LinkOutput(id).Retransmissions; got != w.nacked {
				t.Errorf("seed %d link %d: %d retransmissions booked, its wire NACKed %d", seed, id, got, w.nacked)
			}
			sum.corrected += w.corrected
			sum.nacked += w.nacked
			sum.swallowed += w.swallowed
		}
		c := &n.Counters
		if c.CorrectedFaults != sum.corrected || c.Retransmissions != sum.nacked || c.DroppedInFlight != sum.swallowed {
			t.Errorf("seed %d: network booked %d corrected, %d retransmissions, %d swallowed; the wires saw %d, %d, %d",
				seed, c.CorrectedFaults, c.Retransmissions, c.DroppedInFlight, sum.corrected, sum.nacked, sum.swallowed)
		}
		if sum.corrected == 0 || sum.nacked == 0 || sum.swallowed == 0 {
			t.Errorf("seed %d: the wires saw %d corrected, %d NACKed, %d swallowed: the comparison is vacuous",
				seed, sum.corrected, sum.nacked, sum.swallowed)
		}
	}
}

// crossing is one flit as the sending router handed it to a link's wire.
type crossing struct {
	link int
	f    flit.Flit
}

// stampWire records every flit handed to it and delivers it. With from !=
// to it also rewrites the destination of heads bound for from to to, as
// the misroute trojan does in flight.
type stampWire struct {
	l        *flit.Layout
	link     int
	crossed  *[]crossing
	from, to uint8
}

// Transmit implements Wire.
func (w *stampWire) Transmit(_ uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, TxResult) {
	*w.crossed = append(*w.crossed, crossing{w.link, f})
	if w.from != w.to && f.IsHead() && w.l.DstR(f.Payload) == w.from {
		h := w.l.Decode(f.Payload)
		h.DstR = w.to
		f.Payload = w.l.Encode(h)
	}
	return f, TxResult{OK: true}
}

// TestSwitchStampsEveryFlitWithItsHeader: every flit that crosses a link
// carries its packet's (SrcR, DstR, VC) as the packet's head declared them
// on that link. The wire on link 0->1 rewrites the destination of heads
// bound for router 3 to router 13, so a packet from router 0 to router 3
// turns south at router 1: its body and tail carry destination 3 across
// 0->1 and the rewritten 13 across 1->5.
func TestSwitchStampsEveryFlitWithItsHeader(t *testing.T) {
	n := mkNet(t)
	cfg := n.Config()
	lay := n.Layout()
	var crossed []crossing
	hijacked, next := linkBetween(t, n, 0, 1), linkBetween(t, n, 1, 5)
	for _, l := range n.LinkSlice() {
		w := &stampWire{l: &lay, link: l.ID, crossed: &crossed}
		if l.ID == hijacked.ID {
			w.from, w.to = 3, 13
		}
		n.SetWire(l.ID, w)
	}
	id := n.nextPacketID
	if !n.Inject(coreAt(t, cfg, 0), pkt(3, 0, 1, 3)) {
		t.Fatal("inject failed")
	}
	rng := xrand.New(5)
	inject := func(c int, p *flit.Packet) { n.Inject(c, p) }
	for cycle := 0; cycle < 1000; cycle++ {
		if cycle < 600 {
			fuzzLoad(rng, &cfg, 0.02, inject)
		}
		n.Step()
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	type hop struct {
		link int
		id   uint64
	}
	heads := map[hop]flit.Header{}
	var onHijacked, onNext int
	for _, c := range crossed {
		f := &c.f
		if f.IsHead() {
			heads[hop{c.link, f.PacketID}] = lay.Decode(f.Payload)
		}
		h, ok := heads[hop{c.link, f.PacketID}]
		if !ok {
			t.Fatalf("link %d: flit %d of packet %d crossed before its head", c.link, f.Index, f.PacketID)
		}
		if f.SrcR != h.SrcR || f.DstR != h.DstR || f.VC != h.VC {
			t.Errorf("link %d: flit %d of packet %d stamped %d->%d vc%d, its head declared %d->%d vc%d",
				c.link, f.Index, f.PacketID, f.SrcR, f.DstR, f.VC, h.SrcR, h.DstR, h.VC)
		}
		if f.PacketID != id || f.IsHead() {
			continue
		}
		switch c.link {
		case hijacked.ID:
			onHijacked++
			if f.DstR != 3 {
				t.Errorf("flit %d crossed 0->1 stamped for router %d, want 3", f.Index, f.DstR)
			}
		case next.ID:
			onNext++
			if f.DstR != 13 {
				t.Errorf("flit %d crossed 1->5 stamped for router %d, want the rewritten 13", f.Index, f.DstR)
			}
		}
	}
	if onHijacked != 3 || onNext != 3 {
		t.Errorf("%d body and tail flits crossed 0->1 and %d crossed 1->5, want 3 and 3", onHijacked, onNext)
	}
	if len(heads) < 100 {
		t.Errorf("only %d head crossings: the load check is vacuous", len(heads))
	}
}
