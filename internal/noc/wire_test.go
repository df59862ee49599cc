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
