package noc

import (
	"testing"
	"unsafe"
)

// TestHotStructSizes pins the sizes of the structs every hop copies: input
// buffer slots and retransmission entries hold flits by value, so a field
// reordering that reintroduces padding costs memory traffic on every hop.
// Change the expected sizes only together with the layout they document.
func TestHotStructSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"bufFlit", unsafe.Sizeof(bufFlit{}), 40},
		{"retransEntry", unsafe.Sizeof(retransEntry{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestStepAllocationBudget enforces the zero-allocation hot path: once the
// network has reached steady state under uniform traffic, Network.Step must
// not allocate. The input-VC ring buffers, preallocated retransmission
// storage, NI queue rings and rxState free list all exist to keep this at
// zero; a regression in any of them (e.g. reintroducing slice-shift pops)
// fails this test.
func TestStepAllocationBudget(t *testing.T) {
	n, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	load := newStepLoad(n, 1, 0.02)
	for i := 0; i < 2000; i++ { // steady state: buffers, pools and maps grown
		load.inject()
		n.Step()
	}
	avg := testing.AllocsPerRun(2000, func() { n.Step() })
	if avg > 0.05 {
		t.Fatalf("steady-state Network.Step allocates %.3f times per cycle; the hot-path budget is 0", avg)
	}
	if n.Counters.DeliveredPackets == 0 {
		t.Fatal("no traffic delivered; the budget was measured on an idle network")
	}

	// The loaded path — injection included — must also be allocation-free:
	// Inject flitises into the network's reusable scratch buffer and the NI
	// queue rings absorb the copies without growing at steady state.
	before := n.Counters.DeliveredPackets
	if avg := testing.AllocsPerRun(2000, func() { load.inject(); n.Step() }); avg > 0.05 {
		t.Fatalf("steady-state inject+Step allocates %.3f times per cycle; the loaded-path budget is 0", avg)
	}
	if n.Counters.DeliveredPackets == before {
		t.Fatal("no traffic delivered during the loaded-path measurement")
	}

	// The fully idle network must also be allocation-free (and near-free in
	// time, via the active-router skip).
	idle, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() { idle.Step() }); avg != 0 {
		t.Fatalf("idle Network.Step allocates %.3f times per cycle", avg)
	}
}
