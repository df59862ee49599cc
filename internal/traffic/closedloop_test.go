package traffic

import (
	"testing"

	"tasp/internal/flit"
	"tasp/internal/noc"
)

// runClosedLoop drives a closed-loop workload on a real network.
func runClosedLoop(t *testing.T, cl *ClosedLoop, n *noc.Network, cycles int) {
	t.Helper()
	n.SetDelivered(cl.OnDeliver)
	for c := 0; c < cycles; c++ {
		cl.Tick(func(core int, p *flit.Packet) bool { return n.Inject(core, p) })
		n.Step()
	}
}

func TestClosedLoopTransactionsComplete(t *testing.T) {
	cfg := noc.DefaultConfig()
	m, err := Benchmark("blackscholes", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClosedLoop(m, 3, 4)
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runClosedLoop(t, cl, n, 3000)
	if cl.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	// Conservation: pending + completed relate to injected requests.
	if cl.Pending() < 0 || cl.Pending() > 4*cfg.Cores() {
		t.Fatalf("pending out of range: %d", cl.Pending())
	}
}

func TestClosedLoopWindowBoundsPending(t *testing.T) {
	cfg := noc.DefaultConfig()
	m, _ := Benchmark("ferret", cfg)
	m.Rate = 0.5 // demand far above the window
	cl := NewClosedLoop(m, 7, 2)
	n, _ := noc.New(cfg)
	n.SetDelivered(cl.OnDeliver)
	for c := 0; c < 1000; c++ {
		cl.Tick(func(core int, p *flit.Packet) bool { return n.Inject(core, p) })
		n.Step()
		if cl.Pending() > 2*cfg.Cores() {
			t.Fatalf("cycle %d: pending %d exceeds window x cores", c, cl.Pending())
		}
	}
	if cl.Stalled == 0 {
		t.Fatal("high demand never hit the window")
	}
}

func TestClosedLoopDefaultWindow(t *testing.T) {
	cfg := noc.DefaultConfig()
	m, _ := Benchmark("fft", cfg)
	cl := NewClosedLoop(m, 1, 0)
	if cl.Outstanding != 4 {
		t.Fatalf("default window %d", cl.Outstanding)
	}
}

// TestClosedLoopVictimStallPropagates is the reverberation property: wedge
// the links into router 0 and requesters chip-wide eventually stall at
// their windows even though their own links are healthy.
func TestClosedLoopVictimStallPropagates(t *testing.T) {
	cfg := noc.DefaultConfig()
	m, _ := Benchmark("blackscholes", cfg)
	cl := NewClosedLoop(m, 11, 4)
	n, _ := noc.New(cfg)
	// Kill both ingress links of router 0: requests to the primary die.
	for _, l := range n.Links() {
		if l.To == 0 {
			n.SetWire(l.ID, dropWire{})
		}
	}
	runClosedLoop(t, cl, n, 4000)
	completedAtCut := cl.Completed
	// Run further: completions must flatline near zero growth for dest-0
	// traffic, and pending must pile up toward the window bound.
	runClosedLoop(t, cl, n, 2000)
	growth := cl.Completed - completedAtCut
	if cl.Pending() < cfg.Cores() { // many cores wedged at their window
		t.Fatalf("pending %d too low — stalls did not propagate", cl.Pending())
	}
	if growth > completedAtCut {
		t.Fatalf("completions kept pace (%d then +%d) despite the dead primary", completedAtCut, growth)
	}
}

type dropWire struct{}

func (dropWire) Transmit(_ uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, noc.TxResult) {
	return f, noc.TxResult{OK: false}
}

func TestClosedLoopReplyMarkRoundTrip(t *testing.T) {
	cfg := noc.DefaultConfig()
	m, _ := Benchmark("blackscholes", cfg)
	cl := NewClosedLoop(m, 9, 4)
	// Feed a synthetic delivered request and check the queued reply.
	req := flit.Header{Kind: flit.Single, VC: 2, SrcR: 3, SrcC: 1, DstR: 9, DstC: 2, Mem: 0x09001234, Seq: 7}
	cl.OnDeliver(noc.Delivery{Hdr: req, Flits: 1})
	if len(cl.replyQueue) != 1 {
		t.Fatalf("replies queued: %d", len(cl.replyQueue))
	}
	r := cl.replyQueue[0]
	if r.Hdr.Spare != ReplyMark || r.Hdr.DstR != 3 || r.Hdr.DstC != 1 {
		t.Fatalf("reply malformed: %+v", r.Hdr)
	}
	if r.NumFlits() != 5 {
		t.Fatalf("reply flits: %d", r.NumFlits())
	}
}
