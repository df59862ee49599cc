package noc

import (
	"fmt"
	"testing"
	"unsafe"

	"tasp/internal/flit"
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

// TestBufferWindowsEndAtTheirBounds: a network keeps each kind of buffer
// in one array for all its routers and NIs, handed out as windows in
// router order. Each window must start where the previous one's capacity
// ends, across routers too, and hold exactly its bound — the routers and
// NIs themselves, ports×VCs input VCs and ports output ports and pointers
// per router, BufDepth flits per input VC, retransCap entries per output
// port, VCs owners and credits per port, Concentration queues and heads
// and VCs locks and reassembly slots per NI, InjQueueCap flits per core,
// one class per destination per link — so no append, compaction or refill
// can reach a neighbour's storage. Checked on every topology, with shared
// and per-VC retransmission buffers.
func TestBufferWindowsEndAtTheirBounds(t *testing.T) {
	for _, topo := range Topologies() {
		for _, perVC := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Topo, cfg.RetransPerVC = topo, perVC
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s retransPerVC=%v", topo, perVC)
			ports := n.routers[0].numPorts
			vcs, conc := cfg.VCs, cfg.Concentration
			var (
				routers [][]Router
				nis     [][]NI
				ivcs    [][]inputVC
				bufs    [][]bufFlit
				ops     [][]outputPort
				ptrs    [][]*outputPort
				entries [][]retransEntry
				owners  [][]uint64
				credits [][]int
				queues  [][][]flit.Flit
				flits   [][]flit.Flit
				heads   [][]int
				locks   [][]int
				rx      [][]rxState
				classes [][]uint8
			)
			for i, r := range n.routers {
				ni := n.nis[i]
				routers = append(routers, unsafe.Slice(r, 1))
				nis = append(nis, unsafe.Slice(ni, 1))
				ivcs = append(ivcs, r.ivcs)
				for v := range r.ivcs {
					bufs = append(bufs, r.ivcs[v].buf)
				}
				ops = append(ops, unsafe.Slice(r.outputs[0], r.numPorts))
				ptrs = append(ptrs, r.outputs, r.ups)
				for p, op := range r.outputs {
					if op != &ops[len(ops)-1][p] {
						t.Fatalf("%s router %d: output %d is not its router's port window's", where, i, p)
					}
					entries = append(entries, op.entries)
					owners = append(owners, op.vcOwner)
					credits = append(credits, op.credits)
				}
				queues = append(queues, ni.queues)
				flits = append(flits, ni.queues...)
				heads = append(heads, ni.heads)
				locks = append(locks, ni.injLock)
				rx = append(rx, ni.rx)
			}
			for _, l := range n.links {
				if cl := n.LinkOutput(l.ID).vcClass; cl != nil {
					classes = append(classes, cl)
				}
			}
			checkWindows(t, where+" routers", routers, 1, 1)
			checkWindows(t, where+" NIs", nis, 1, 1)
			checkWindows(t, where+" input VCs", ivcs, ports*vcs, ports*vcs)
			checkWindows(t, where+" input VC buffers", bufs, 0, cfg.BufDepth)
			checkWindows(t, where+" output ports", ops, ports, ports)
			checkWindows(t, where+" output and upstream port tables", ptrs, ports, ports)
			checkWindows(t, where+" retransmission buffers", entries, 0, retransCap(&cfg))
			checkWindows(t, where+" VC owners", owners, vcs, vcs)
			checkWindows(t, where+" credits", credits, vcs, vcs)
			checkWindows(t, where+" NI queue tables", queues, conc, conc)
			checkWindows(t, where+" NI queues", flits, 0, cfg.InjQueueCap)
			checkWindows(t, where+" NI queue heads", heads, conc, conc)
			checkWindows(t, where+" NI injection locks", locks, vcs, vcs)
			checkWindows(t, where+" NI reassembly slots", rx, vcs, vcs)
			if want := len(n.links); n.baseClasses != nil && len(classes) != want {
				t.Fatalf("%s: %d links have a class table, want %d", where, len(classes), want)
			}
			checkWindows(t, where+" VC-class tables", classes, cfg.Routers(), cfg.Routers())
		}
	}
}

// TestNewAllocationsDoNotGrowWithRouters: New allocates each kind of
// buffer once for the whole network, so its allocation count stays under
// one bound from 16 to 256 routers on every topology, where one allocation
// per router and buffer kind made a 16x16 torus take thousands.
func TestNewAllocationsDoNotGrowWithRouters(t *testing.T) {
	const bound = 48
	for _, c := range []struct {
		topo string
		w, h int
	}{
		{"mesh", 4, 4}, {"mesh", 16, 16}, {"torus", 4, 4}, {"torus", 16, 16}, {"ring", 4, 4}, {"ring", 8, 8},
	} {
		cfg := DefaultConfig()
		cfg.Topo, cfg.Width, cfg.Height = c.topo, c.w, c.h
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %dx%d: %.0f allocations", c.topo, c.w, c.h, allocs)
		if allocs > bound {
			t.Errorf("New(%s %dx%d) makes %.0f allocations, over the bound of %d", c.topo, c.w, c.h, allocs, bound)
		}
	}
}

// checkWindows checks that each window has length n and capacity c and
// starts right where the previous one's capacity ends.
func checkWindows[T any](t *testing.T, where string, ws [][]T, n, c int) {
	t.Helper()
	var zero T
	for i, w := range ws {
		if len(w) != n || cap(w) != c {
			t.Fatalf("%s: window %d has len %d cap %d, want len %d cap %d", where, i, len(w), cap(w), n, c)
		}
		if i == 0 {
			continue
		}
		prev := ws[i-1]
		end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(cap(prev))*unsafe.Sizeof(zero))
		if unsafe.Pointer(unsafe.SliceData(w)) != end {
			t.Fatalf("%s: window %d does not start where window %d ends", where, i, i-1)
		}
	}
}
