package noc

import (
	"math/bits"

	"tasp/internal/flit"
)

// NI is the network interface of one router tile: per-core injection queues
// feeding the router's local input port through a concentrator, and packet
// reassembly on the ejection side.
// Delivery describes one fully reassembled packet at its destination NI.
type Delivery struct {
	ID      uint64      // packet id
	Hdr     flit.Header // the head flit's routing header
	Flits   int         // packet length
	Latency uint64      // injection-to-tail cycles
}

// NI is the network interface of one router tile: per-core injection queues
// feeding the router's local input port through a concentrator, and packet
// reassembly on the ejection side.
//
// Each per-core queue uses head-index ring semantics (see inputVC): inject
// consumes by advancing heads[core] rather than re-slicing, and enqueue
// compacts the live region when the backing array runs out, so the steady
// state allocates nothing.
type NI struct {
	router  int
	cfg     Config
	layout  flit.Layout
	queues  [][]flit.Flit // one per local core, flit granularity
	heads   []int         // per-core front index into queues[core]
	total   int           // flits waiting across all queues
	injLock []int         // vc -> core currently injecting a packet, -1 free
	rrCore  int           // concentrator round-robin pointer
	// refusedBy has bit v set for each local input VC that was full when
	// the last inject moved nothing; nonzero means the NI waits (see
	// waiting) until one of them frees a slot or new flits arrive. A
	// successful inject clears it.
	refusedBy uint8

	// rx holds one reassembly slot per ejection VC. The ejection port's VC
	// ownership admits one packet per VC from VC allocation until its tail
	// is delivered, and the retransmission buffer keeps per-VC order, so a
	// VC's flits arrive as one packet's run: head, bodies, tail. A truncated
	// packet keeps its slot, and its VC, until purgePacket reclaims both.
	rx []rxState

	// sched is the network's event-driven scheduler; gain/lose (sched.go)
	// mirror total into its injection active set. Set by Network.New.
	sched *scheduler

	// Delivered is invoked for each fully reassembled packet. May be nil.
	Delivered func(d Delivery)
}

// rxState tracks one packet's reassembly; flits == 0 marks a free slot.
type rxState struct {
	id    uint64 // packet id
	hdr   flit.Header
	flits int
}

func newNI(router int, cfg Config, layout flit.Layout) *NI {
	ni := &NI{
		router:  router,
		cfg:     cfg,
		layout:  layout,
		queues:  make([][]flit.Flit, cfg.Concentration),
		heads:   make([]int, cfg.Concentration),
		injLock: make([]int, cfg.VCs),
		rx:      make([]rxState, cfg.VCs),
	}
	for c := range ni.queues {
		ni.queues[c] = make([]flit.Flit, 0, cfg.InjQueueCap)
	}
	for v := range ni.injLock {
		ni.injLock[v] = -1
	}
	return ni
}

// reset empties the injection queues, releases VC locks, frees the
// reassembly slots and removes the delivery callback, restoring the
// post-newNI state without allocating. Network.Reset only.
func (ni *NI) reset() {
	for c := range ni.queues {
		ni.queues[c] = ni.queues[c][:0]
		ni.heads[c] = 0
	}
	for v := range ni.injLock {
		ni.injLock[v] = -1
	}
	ni.rrCore = 0
	clear(ni.rx)
	ni.Delivered = nil
	ni.resetActivity()
}

// qlen returns the number of flits waiting in one core's injection queue.
func (ni *NI) qlen(core int) int { return len(ni.queues[core]) - ni.heads[core] }

// enqueue appends a packet's flits to the core-local injection queue. The
// caller has admitted the packet with coreFull, so the whole packet fits.
func (ni *NI) enqueue(core int, fs []flit.Flit) {
	q, h := ni.queues[core], ni.heads[core]
	if h > 0 && len(q)+len(fs) > cap(q) {
		n := copy(q, q[h:])
		q = q[:n]
		ni.heads[core] = 0
	}
	//nocvet:allowalloc bounded: qlen admission caps occupancy at InjQueueCap and the queue is pre-sized to it
	ni.queues[core] = append(q, fs...)
	ni.gain(len(fs))
}

// coreFull reports whether a core's injection queue cannot accept a packet
// of the given flit count: the admission rule for injection, and the
// "core full" test of the paper's occupancy bins. A refused packet queues
// nothing; the source must retry — this is how full cores throttle.
func (ni *NI) coreFull(core, packetFlits int) bool {
	return ni.qlen(core)+packetFlits > ni.cfg.InjQueueCap
}

// occupancy returns the total flits waiting across this NI's queues.
func (ni *NI) occupancy() int { return ni.total }

// fullCores returns how many of the NI's cores have (nearly) full queues:
// a queue is "full" when it cannot accept another maximal packet.
func (ni *NI) fullCores(packetFlits int) int {
	n := 0
	for c := range ni.queues {
		if ni.coreFull(c, packetFlits) {
			n++
		}
	}
	return n
}

// inject moves at most one flit from the concentrator into the router's
// local input port (the BW stage of the injection path). Wormhole integrity
// across cores sharing a VC is preserved by injLock: once a core's head flit
// enters VC v, other cores may not interleave flits on v until the tail.
//
// A refused attempt changes no state; it records the full local VCs that
// refused it, so Step can skip the NI until one of them frees a slot. A
// core refused by another core's lock waits on the lock holder, whose front
// flit rides the locked VC — so that VC is among the recorded ones.
func (ni *NI) inject(r *Router, cycle uint64) bool {
	conc := ni.cfg.Concentration
	var full uint8
	for k := 0; k < conc; k++ {
		core := ni.rrCore + k // rrCore <= conc, so one wrap suffices
		if core >= conc {
			core -= conc
		}
		if ni.qlen(core) == 0 {
			continue
		}
		v := ni.target(core)
		if v < 0 {
			continue
		}
		if r.input(PortLocal, v).size() >= ni.cfg.BufDepth {
			full |= 1 << uint(v)
			continue
		}
		f := &ni.queues[core][ni.heads[core]]
		head, tail := f.IsHead(), f.IsTail()
		r.deposit(PortLocal, v, bufFlit{f: *f, readyAt: cycle + 1}, cycle)
		ni.heads[core]++
		if ni.heads[core] == len(ni.queues[core]) {
			ni.queues[core] = ni.queues[core][:0]
			ni.heads[core] = 0
		}
		ni.lose(1)
		if head && !tail {
			ni.injLock[v] = core
		}
		if tail {
			if v >= 0 && ni.injLock[v] == core {
				ni.injLock[v] = -1
			}
		}
		ni.rrCore = core + 1
		ni.refuse(0)
		return true
	}
	ni.refuse(full)
	return false
}

// target returns the local input VC the front flit of a non-empty core
// queue would enter, or -1 while another core's packet holds the head's VC.
// Body and tail flits ride the VC their head locked (-1 if the lock is
// missing, which should not happen; the caller skips the core).
func (ni *NI) target(core int) int {
	f := &ni.queues[core][ni.heads[core]]
	if !f.IsHead() {
		return ni.lockedVC(core)
	}
	v := int(ni.layout.VC(f.Payload))
	if ni.injLock[v] != -1 && ni.injLock[v] != core {
		return -1 // VC locked by another core's in-flight packet
	}
	return v
}

// waiting reports whether inject would refuse again: the last attempt was
// refused, and every local input VC that refused it is still full, re-read
// from the buffers. Only this NI fills the local input VCs, and new flits
// clear refusedBy (gain), so nothing else can make a refused core
// admissible.
func (ni *NI) waiting(r *Router) bool {
	for m := ni.refusedBy; m != 0; m &= m - 1 {
		if r.input(PortLocal, bits.TrailingZeros8(m)).size() < ni.cfg.BufDepth {
			return false
		}
	}
	return ni.refusedBy != 0
}

// canInject is a side-effect-free dry run of inject's admission checks:
// whether some core's front flit could enter the local input port now.
func (ni *NI) canInject(r *Router) bool {
	for core := range ni.queues {
		if ni.qlen(core) == 0 {
			continue
		}
		if v := ni.target(core); v >= 0 && r.input(PortLocal, v).size() < ni.cfg.BufDepth {
			return true
		}
	}
	return false
}

// lockedVC returns the VC a core currently holds an injection lock on.
func (ni *NI) lockedVC(core int) int {
	for v, c := range ni.injLock {
		if c == core {
			return v
		}
	}
	return -1
}

// receive accepts a flit ejected on VC vc and completes reassembly on the
// tail. A flit of another packet than the one the VC's slot holds starts a
// fresh reassembly there.
func (ni *NI) receive(f flit.Flit, vc uint8, cycle uint64) (done bool, latency uint64) {
	st := &ni.rx[vc]
	if st.flits == 0 || st.id != f.PacketID {
		*st = rxState{id: f.PacketID}
	}
	st.flits++
	if f.IsHead() {
		st.hdr = f.Header(&ni.layout)
	}
	if !f.IsTail() {
		return false, 0
	}
	hdr, flits := st.hdr, st.flits
	*st = rxState{}
	lat := cycle - f.InjectAt
	if ni.Delivered != nil {
		ni.Delivered(Delivery{ID: f.PacketID, Hdr: hdr, Flits: flits, Latency: lat})
	}
	return true, lat
}
