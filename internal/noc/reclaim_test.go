package noc

import (
	"testing"

	"tasp/internal/flit"
)

// tailSwallowWire models the drop-trojan tail swallow: it consumes every
// TAIL flit crossing the link (forging the ACK, so the sender books a
// clean delivery) and forwards everything else untouched.
type tailSwallowWire struct{ swallowed int }

func (w *tailSwallowWire) Transmit(_ uint64, f flit.Flit, _ uint8, _ int) (flit.Flit, TxResult) {
	if f.Kind == flit.Tail {
		w.swallowed++
		return f, TxResult{OK: true, Swallowed: true}
	}
	return f, TxResult{OK: true}
}

// TestReclaimTruncatedFreesTailSwallowedWormholes is the regression test
// for the trojan tail-swallow VC leak: when a TAIL flit is consumed in
// flight, the sender's bookkeeping runs as on a real delivery, but every
// resource the packet holds downstream of the trojan — input VC wormhole
// state, output VC ownership, partial NI reassembly — stays held, because
// phaseRC's orphan retirement only cleans beheaded packets, never betailed
// ones. ReclaimTruncated must purge the betailed wormholes, restore every
// audited invariant, and leave the wedged path usable again.
func TestReclaimTruncatedFreesTailSwallowedWormholes(t *testing.T) {
	n := mkNet(t)
	var link LinkInfo
	for _, l := range n.Links() {
		if l.From == 1 && l.To == 2 {
			link = l
			break
		}
	}
	w := &tailSwallowWire{}
	n.SetWire(link.ID, w)

	// Multi-flit wormholes through the infected link: router 0's core to
	// router 3 crosses 0->1->2->3 under XY. The tails vanish in flight on
	// 1->2; heads and bodies run ahead and wedge the residual path.
	for i := 0; i < 2; i++ {
		if !n.Inject(0, pkt(3, 0, uint8(i%2), 10)) {
			t.Fatal("inject failed")
		}
	}
	// Stop the instant the second tail is swallowed: the flits ahead of
	// the vanished tails are still strung across routers 2 and 3.
	for i := 0; i < 600 && w.swallowed < 2; i++ {
		n.Step()
	}
	if w.swallowed != 2 {
		t.Fatalf("swallowed %d tails, want 2: the trojan path was not exercised", w.swallowed)
	}
	if n.Counters.DeliveredPackets != 0 {
		t.Fatal("betailed packets delivered whole")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("before reclaim: %v", err)
	}
	if n.Occupancy().InputFlits == 0 {
		t.Fatal("no residual flits buffered: nothing was wedged")
	}

	// The reconfiguration-time sweep: every betailed wormhole is purged.
	dropped := n.ReclaimTruncated()
	if dropped == 0 {
		t.Fatal("ReclaimTruncated purged nothing")
	}
	if n.Counters.DroppedReconfig == 0 {
		t.Fatal("reclaimed flits not booked as reconfig drops")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after reclaim: %v", err)
	}
	n.Run(400)
	if got := n.Occupancy().InputFlits; got != 0 {
		t.Fatalf("%d flits still buffered after reclaim", got)
	}

	// The healed path must be fully usable: same route, same VCs.
	n.SetWire(link.ID, NewPlainWire())
	for i := 0; i < 2; i++ {
		if !n.Inject(0, pkt(3, 0, uint8(i%2), 10)) {
			t.Fatal("post-reclaim inject failed")
		}
	}
	n.Run(500)
	if got := n.Counters.DeliveredPackets; got != 2 {
		t.Fatalf("delivered %d of 2 packets after reclaim: VCs still wedged", got)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after post-reclaim traffic: %v", err)
	}
}

// TestDisableLinkReclaimPurgesCutWormholes pins the conviction-time cut:
// disabling a link a wormhole is strung across must purge the whole packet
// — the upstream remainder and the downstream head-side that would
// otherwise hold its allocations forever — and keep the audited invariants.
func TestDisableLinkReclaimPurgesCutWormholes(t *testing.T) {
	n := mkNet(t)
	var link LinkInfo
	for _, l := range n.Links() {
		if l.From == 1 && l.To == 2 {
			link = l
			break
		}
	}
	// A long wormhole crossing 1->2, cut mid-flight: step until the head
	// is past the link but the tail is not (a 12-flit packet takes 12+
	// cycles to cross, so the first crossing leaves it strung over the
	// link). A single packet keeps the test about the cut itself — with
	// no replacement routing table installed, a second packet's head
	// would legitimately park at the dead port forever.
	if !n.Inject(0, pkt(3, 0, 0, 10)) {
		t.Fatal("inject failed")
	}
	for i := 0; i < 600 && n.LinkOutput(link.ID).FlitsSent == 0; i++ {
		n.Step()
	}
	if n.LinkOutput(link.ID).FlitsSent == 0 {
		t.Fatal("nothing in flight across the target link")
	}
	dropped := n.DisableLinkReclaim(link.ID)
	if dropped == 0 {
		t.Fatal("cutting a busy link reclaimed nothing")
	}
	n.ReclaimTruncated()
	if n.Counters.DroppedReconfig == 0 {
		t.Fatal("cut flits not booked as reconfig drops")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after cut: %v", err)
	}
	n.Run(1000)
	if got := n.Occupancy().InputFlits; got != 0 {
		t.Fatalf("%d flits still buffered after drain", got)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestPurgeLeavesOtherFIFOsIntact is the unit regression test for the
// conviction-driven recovery crash (a nil buffer front in phaseVA). purgePacket
// compacted every input FIFO it scanned down to index 0 but rewound the ring
// head only when it had removed a flit, so in a FIFO holding none of the
// purged packet's flits, with its head past index 0, the front flit vanished
// and the one behind it appeared twice. A head flit lost that way left its
// VC requesting VA with a body flit, and later nothing, at the front. Purging
// a packet that exists nowhere must leave every FIFO exactly as it was.
func TestPurgeLeavesOtherFIFOsIntact(t *testing.T) {
	n := mkNet(t)
	load := newStepLoad(n, 3, 0.05)
	live := func() (fifos [][]bufFlit, offset bool) {
		for _, r := range n.routers {
			for i := range r.ivcs {
				ivc := &r.ivcs[i]
				fifos = append(fifos, append([]bufFlit(nil), ivc.buf[ivc.head:]...))
				offset = offset || (ivc.head > 0 && !ivc.empty())
			}
		}
		return fifos, offset
	}
	var before [][]bufFlit
	for i, offset := 0, false; !offset; i++ {
		if i == 3000 {
			t.Fatal("no input FIFO ever held flits past index 0: the test needs a ring offset")
		}
		load.inject()
		n.Step()
		before, offset = live()
	}
	if dropped := n.purgePacket(1 << 62); dropped != 0 {
		t.Fatalf("purging an absent packet dropped %d flits", dropped)
	}
	after, _ := live()
	for i := range before {
		if len(before[i]) != len(after[i]) {
			t.Fatalf("FIFO %d: %d flits before the purge, %d after", i, len(before[i]), len(after[i]))
		}
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("FIFO %d slot %d changed: %+v -> %+v", i, j, before[i][j], after[i][j])
			}
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
