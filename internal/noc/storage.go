package noc

import "tasp/internal/flit"

// storage is every buffer of one network, one allocation per kind for the
// whole network, which New hands out as windows to each router and NI in
// router order (newRouter, newNI). A window is a three-index slice whose
// capacity ends where the next window of its kind begins, whichever router
// or NI that one belongs to, so no append, compaction, purge or checkpoint
// refill reaches a neighbour's storage; one that outgrew its window would
// reallocate instead. TestBufferWindowsEndAtTheirBounds checks every
// window's bound and its adjacency to the next.
type storage struct {
	routers []Router
	nis     []NI

	ivcs    []inputVC      // each router's input VCs, ports*VCs
	bufs    []bufFlit      // each input VC's flits, BufDepth
	ports   []outputPort   // each router's output ports
	ptrs    []*outputPort  // each router's outputs table, then its ups table
	entries []retransEntry // each output port's retransmission buffer, retransCap
	owners  []uint64       // each output port's downstream VC owners, VCs
	credits []int          // each output port's downstream credits, VCs

	queues [][]flit.Flit // each NI's per-core queues, Concentration
	flits  []flit.Flit   // each core's queued flits, InjQueueCap
	heads  []int         // each core's queue front, Concentration per NI
	locks  []int         // each NI's injection locks, VCs
	rx     []rxState     // each NI's reassembly slots, VCs
}

// newStorage allocates the buffers of a network of the given router count
// whose routers have ports output ports in all.
func newStorage(cfg *Config, routers, ports int) storage {
	vcs, cores := cfg.VCs, routers*cfg.Concentration
	return storage{
		routers: make([]Router, routers),
		nis:     make([]NI, routers),
		ivcs:    make([]inputVC, ports*vcs),
		bufs:    make([]bufFlit, ports*vcs*cfg.BufDepth),
		ports:   make([]outputPort, ports),
		ptrs:    make([]*outputPort, 2*ports),
		entries: make([]retransEntry, ports*retransCap(cfg)),
		owners:  make([]uint64, ports*vcs),
		credits: make([]int, ports*vcs),
		queues:  make([][]flit.Flit, cores),
		flits:   make([]flit.Flit, cores*cfg.InjQueueCap),
		heads:   make([]int, cores),
		locks:   make([]int, routers*vcs),
		rx:      make([]rxState, routers*vcs),
	}
}

// carve cuts the next n elements off the front of *block and returns them
// as a window of length l and capacity n.
func carve[T any](block *[]T, l, n int) []T {
	w := (*block)[:l:n]
	*block = (*block)[n:]
	return w
}
