package noc

import "testing"

func TestTelemetryQuiescentNetworkNeverBlocks(t *testing.T) {
	n := mkNet(t)
	tel := n.EnableTelemetry(8)
	for i := 0; i < 20; i++ {
		n.Run(25)
		tel.Sample()
	}
	if tel.rows != 8 {
		t.Fatalf("ring holds %d rows after 20 samples, want its depth 8", tel.rows)
	}
	for id := range n.links {
		if _, ever := tel.Onset(id); ever {
			t.Fatalf("link %d blocked in an idle network", id)
		}
		if tel.RecentBlockedFrac(id) != 0 {
			t.Fatalf("link %d has non-zero blocked fraction in an idle network", id)
		}
	}
}

// TestTelemetryFlagsWedgedLink wedges one link with a persistent NACK wire
// and checks the tap singles it out: its blocked fraction over every
// sample (the ring is deeper than the run) dominates the mesh.
func TestTelemetryFlagsWedgedLink(t *testing.T) {
	n := mkNet(t)
	var target LinkInfo
	for _, l := range n.Links() {
		if l.From == 1 && l.FromPort == PortWest { // 1 -> 0, dest-0 ingress
			target = l
			break
		}
	}
	n.SetWire(target.ID, nackWire{})
	tel := n.EnableTelemetry(64)
	// Saturate the wedged link's flows: three-flit packets from router 1's
	// cores toward router 0.
	for i := 0; i < 400; i++ {
		if i%4 == 0 {
			n.Inject(4, pkt(0, 0, uint8(i%4), 3)) // core 4 lives on router 1
		}
		n.Step()
		if i%10 == 9 {
			tel.Sample()
		}
	}
	if _, ever := tel.Onset(target.ID); !ever {
		t.Fatal("wedged link never sampled blocked")
	}
	for id := range n.links {
		if id != target.ID && tel.RecentBlockedFrac(id) > tel.RecentBlockedFrac(target.ID) {
			t.Fatalf("link %d blocked fraction %.2f exceeds the wedged link's %.2f",
				id, tel.RecentBlockedFrac(id), tel.RecentBlockedFrac(target.ID))
		}
	}
	if !newestBlocked(tel, target.ID) {
		t.Fatal("wedged link not blocked in the newest sample")
	}
}

// newestBlocked reports whether the link was blocked in the tap's newest
// retained sample.
func newestBlocked(tel *LinkTelemetry, link int) bool {
	r := (tel.head - 1 + tel.depth) % tel.depth
	return tel.ring[r*tel.words+link/64]&(1<<(link%64)) != 0
}

// TestTelemetrySampleDoesNotAllocate holds the tap to the simulator's
// steady-state allocation budget: zero allocations per Sample.
func TestTelemetrySampleDoesNotAllocate(t *testing.T) {
	n := mkNet(t)
	n.SetWire(0, nackWire{})
	tel := n.EnableTelemetry(8)
	for i := 0; i < 200; i++ {
		if i%4 == 0 {
			n.Inject(0, pkt(1, 0, uint8(i%4), 3))
		}
		n.Step()
	}
	if avg := testing.AllocsPerRun(100, tel.Sample); avg != 0 {
		t.Fatalf("Sample averages %.2f allocs, want 0", avg)
	}
}

func TestTelemetryRingWrapsAndIndexes(t *testing.T) {
	n := mkNet(t)
	tel := n.EnableTelemetry(4)
	for i := 0; i < 10; i++ {
		n.Step()
		tel.Sample()
	}
	if tel.rows != 4 || tel.head != 10%4 {
		t.Fatalf("ring rows %d head %d after 10 samples, want 4 and %d", tel.rows, tel.head, 10%4)
	}
}

// TestTelemetryOnsetIgnoresTransientBlip is the regression test for the
// outage-onset estimate: a short congestion blip long before the real outage
// is the link's first blocked streak, but Onset must track the start of the longest sustained
// streak — the actual outage — not the ancient transient.
func TestTelemetryOnsetIgnoresTransientBlip(t *testing.T) {
	n := mkNet(t)
	var target LinkInfo
	for _, l := range n.Links() {
		if l.From == 1 && l.FromPort == PortWest { // 1 -> 0, dest-0 ingress
			target = l
			break
		}
	}
	w := &healableNackWire{}
	n.SetWire(target.ID, w)
	tel := n.EnableTelemetry(0)

	run := func(cycles int, inject bool) {
		for i := 0; i < cycles; i++ {
			if inject && i%4 == 0 {
				n.Inject(4, pkt(0, 0, uint8(i%4), 3)) // core 4 lives on router 1
			}
			n.Step()
			if i%10 == 9 {
				tel.Sample()
			}
		}
	}

	// A short blip: the wire NACKs briefly, then heals and the port drains.
	run(120, true)
	w.healed = true
	run(300, false)
	first, ever := tel.Onset(target.ID)
	if !ever {
		t.Fatal("blip never sampled blocked")
	}
	if newestBlocked(tel, target.ID) {
		t.Fatal("port did not drain after the wire healed")
	}

	// The real outage: the wire breaks again, for much longer.
	w.healed = false
	outageFrom := n.Cycle()
	run(500, true)

	onset, ok := tel.Onset(target.ID)
	if !ok {
		t.Fatal("no onset for a wedged link")
	}
	if onset <= first {
		t.Fatalf("onset %d not after the transient blip's %d", onset, first)
	}
	if onset < outageFrom {
		t.Fatalf("onset %d predates the outage (started at %d)", onset, outageFrom)
	}
	if tel.streaks[target.ID].bestLen < 10 {
		t.Fatalf("outage streak %d samples, want a sustained streak", tel.streaks[target.ID].bestLen)
	}
}
