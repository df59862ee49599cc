package noc

import (
	"math/bits"

	"tasp/internal/flit"
)

// bufFlit is a buffered flit plus the cycle from which it may compete for
// switch allocation (models pipeline latency and obfuscation-undo stalls).
type bufFlit struct {
	f       flit.Flit
	readyAt uint64
}

// inputVC is one virtual-channel FIFO of an input port, plus the wormhole
// state of the packet currently at its front: the computed route (RC) and
// whether the downstream VC has been allocated (VA). Both persist from the
// head flit until the tail is popped.
//
// The FIFO uses head-index ring semantics over a single backing array:
// pop advances head instead of re-slicing (which would retain popped flits
// and force the next push to reallocate), and push compacts the live tail
// down to index 0 when the array is exhausted. Steady state is
// allocation-free once the buffer has grown to BufDepth.
type inputVC struct {
	buf       []bufFlit
	head      int // index of the front flit within buf
	routed    bool
	route     int
	allocated bool
	// outVC is the downstream virtual channel VA allocated for the packet
	// at the front. It equals the input VC index except on dateline links
	// of wraparound topologies, where the VC class remap moves the packet
	// between VC halves (see outputPort.vcClass). Valid while allocated.
	outVC uint8
}

func (v *inputVC) size() int { return len(v.buf) - v.head }

func (v *inputVC) empty() bool { return len(v.buf) == v.head }

func (v *inputVC) front() *bufFlit {
	if v.empty() {
		return nil
	}
	return &v.buf[v.head]
}

func (v *inputVC) pop() flit.Flit {
	f := v.buf[v.head].f
	v.head++
	if v.head == len(v.buf) {
		// Drained: rewind to the start of the backing array for free.
		v.buf = v.buf[:0]
		v.head = 0
	}
	return f
}

func (v *inputVC) push(bf bufFlit) {
	if v.head > 0 && len(v.buf) == cap(v.buf) {
		// Compact the live region down to index 0; occupancy is bounded by
		// BufDepth (credits), so the array never needs to grow past it.
		n := copy(v.buf, v.buf[v.head:])
		v.buf = v.buf[:n]
		v.head = 0
	}
	//nocvet:allowalloc bounded: occupancy is credit-limited to BufDepth and the array is pre-sized to it, so this append grows only while warming up
	v.buf = append(v.buf, bf)
}

// clear empties the FIFO and returns how many flits it dropped.
func (v *inputVC) clear() int {
	n := v.size()
	v.buf = v.buf[:0]
	v.head = 0
	return n
}

// retransEntry is a flit parked in an output retransmission buffer, awaiting
// link traversal and its switch-to-switch ACK.
type retransEntry struct {
	f          flit.Flit
	vc         uint8
	attempts   int    // prior failed traversals of this flit
	nextTry    uint64 // earliest cycle the next attempt may happen
	enqueuedAt uint64 // cycle the flit entered this buffer (ST)
}

// outputPort owns the retransmission buffer behind one crossbar output, the
// credit and VC-ownership state of the downstream input port, and the wire.
type outputPort struct {
	router int
	port   int
	linkID int // index into Network.links; -1 for the local ejection port

	entries  []retransEntry
	vcOwner  []uint64 // downstream input VC -> owning packet id + 1 (0 = free)
	credits  []int    // downstream input VC -> free buffer slots
	wire     Wire
	disabled bool

	// vcClass, when non-nil, is the dateline VC-class table of the link
	// this port drives: vcClass[dst] is the class (0 or 1) a packet
	// destined for dst must occupy in the downstream buffer. VA maps the
	// packet's VC lane into that class's half of the VC space. Nil on
	// topologies without wraparound (the mesh) and on ejection ports.
	vcClass []uint8

	ejection bool // local port: delivers to the NI, no credits

	saPtr int // round-robin pointer for switch allocation
	vaPtr int // round-robin pointer for VC allocation

	// lastProgress is the last cycle this port delivered a flit or had an
	// empty retransmission buffer; the stall detector in Occupancy uses it
	// to tell deadlock from transient congestion.
	lastProgress uint64

	// FlitsSent counts successful traversals (Figure 1(c) link loads). A
	// forged ACK counts here too — the sender cannot tell it from a real one.
	FlitsSent uint64
	// FlitsRecv counts flits actually deposited at the receiving end of the
	// link. On a healthy link FlitsSent == FlitsRecv at all times; a growing
	// gap is the secure-ack signature of an in-flight swallow.
	FlitsRecv uint64
	// Retransmissions counts NACKed attempts on this link.
	Retransmissions uint64
	// RouteViolations counts head flits that arrived carrying a destination
	// the default route table would never have sent through this link — the
	// receiver-side signature of an in-flight header rewrite.
	RouteViolations uint64
}

func (op *outputPort) full(depth int) bool { return len(op.entries) >= depth }

// hasSpace checks admission into the retransmission storage for a flit of
// the given VC under the configured scheme: one shared post-crossbar buffer
// (default, the paper's worst case), half-split (TDM non-interference), or
// per-VC buffers (Figure 5's second scheme).
func (op *outputPort) hasSpace(cfg *Config, vc int) bool {
	switch {
	case cfg.RetransPerVC:
		used := 0
		for _, e := range op.entries {
			if int(e.vc) == vc {
				used++
			}
		}
		return used < cfg.RetransDepth
	case cfg.PartitionRetrans:
		quota := cfg.RetransDepth / 2
		if quota < 1 {
			quota = 1
		}
		half := cfg.VCs / 2
		used := 0
		for _, e := range op.entries {
			if (int(e.vc) < half) == (vc < half) {
				used++
			}
		}
		return used < quota
	default:
		return len(op.entries) < cfg.RetransDepth
	}
}

// retransCap returns the total entries an output port may hold.
func retransCap(cfg *Config) int {
	if cfg.RetransPerVC {
		return cfg.RetransDepth * cfg.VCs
	}
	return cfg.RetransDepth
}

// portVC is the (input port, VC) pair one occupancy-mask bit stands for.
type portVC struct{ port, vc uint8 }

// bitTable maps occupancy-mask bit p*vcs+v back to (p, v) for routers of up
// to MaxPorts ports: the arbitration walks look a set bit up here instead of
// dividing by the VC count. One table serves every router of a network.
func bitTable(vcs int) []portVC {
	t := make([]portVC, MaxPorts*vcs)
	for b := range t {
		t[b] = portVC{port: uint8(b / vcs), vc: uint8(b % vcs)}
	}
	return t
}

// Router is one router of the configured topology: numPorts input ports of
// VCs and numPorts output ports, with port 0 always the local port.
type Router struct {
	id       int
	numPorts int
	// ivcs holds every input VC in one contiguous block, indexed by the
	// occupancy-mask bit p*vcs+v (occBit), so a set bit found by the
	// arbitration walks is its VC's index; input(p, v) is the same lookup
	// by coordinates. bitPV maps a bit back to its (port, vc).
	ivcs    []inputVC
	bitPV   []portVC
	outputs []*outputPort
	// ups[p] is the upstream output port feeding input port p (nil for the
	// local injection port); credits return there when a slot frees.
	ups []*outputPort

	// inFlits and parked count the flits currently buffered in this
	// router's input VCs and output retransmission buffers. When both are
	// zero every pipeline phase is a no-op, and Step skips the router
	// entirely (the active-router skip: idle routers cost ~nothing).
	inFlits int
	parked  int

	// occ is the input-occupancy mask: bit p*vcs+v is set iff input VC
	// (p, v) holds at least one flit. MaxPorts*MaxVCs = 64, so one word
	// always suffices; the arbitration scans walk set bits instead of
	// probing every VC.
	occ uint64
	vcs int

	// routedTo[o] masks the input VCs whose resident packet is routed to
	// output o (bit p*vcs+v, set while inputVC.routed with route == o).
	// SA scans routedTo[o]&occ — only VCs with flits bound for this exact
	// output — and hasWorkFor(o) is a single AND.
	routedTo [MaxPorts]uint64
	// reqVA masks the input VCs whose front flit is a routed, unallocated
	// head — precisely the VCs phaseVA can grant. Set when RC routes a
	// head, cleared when VA allocates it (or the route is invalidated).
	reqVA uint64

	// sched is the network's event-driven scheduler; the gain/lose
	// helpers (sched.go) keep its active sets in lockstep with inFlits
	// and parked. Set by Network.New right after construction.
	sched *scheduler
}

// occBit is the occupancy-mask bit index of input VC (port, vc).
func (r *Router) occBit(port, vc int) uint { return uint(port*r.vcs + vc) }

// input returns input VC (port, vc).
func (r *Router) input(port, vc int) *inputVC { return &r.ivcs[port*r.vcs+vc] }

func newRouter(id int, cfg *Config, ports int, bitPV []portVC) *Router {
	r := &Router{
		id:       id,
		numPorts: ports,
		ivcs:     make([]inputVC, ports*cfg.VCs),
		bitPV:    bitPV,
		outputs:  make([]*outputPort, ports),
		ups:      make([]*outputPort, ports),
		vcs:      cfg.VCs,
	}
	// One contiguous block per router for the output ports (and one for
	// the input VCs): the LT phase walks all ports of every active router
	// each cycle, and on big substrates the pointer-per-port layout was a
	// cache miss per port.
	ops := make([]outputPort, ports)
	for i := range r.ivcs {
		r.ivcs[i].buf = make([]bufFlit, 0, cfg.BufDepth)
	}
	for p := 0; p < ports; p++ {
		op := &ops[p]
		op.router = id
		op.port = p
		op.linkID = -1
		op.entries = make([]retransEntry, 0, retransCap(cfg))
		op.vcOwner = make([]uint64, cfg.VCs)
		op.credits = make([]int, cfg.VCs)
		for v := range op.credits {
			op.credits[v] = cfg.BufDepth
		}
		r.outputs[p] = op
	}
	lp := r.outputs[PortLocal]
	lp.ejection = true
	lp.wire = perfectWire{}
	return r
}

// idle reports whether the router holds no work at all.
func (r *Router) idle() bool { return r.inFlits == 0 && r.parked == 0 }

// reset empties every buffer and restores the router's post-newRouter
// state without allocating: input VCs and their wormhole state, output
// retransmission buffers, credits, VC ownership, arbitration pointers,
// per-port counters and the disabled flags. The scheduler-facing masks and
// counters are cleared through resetActivity (sched.go). Wires are owned by
// the network and restored by Network.Reset.
func (r *Router) reset(cfg *Config) {
	for i := range r.ivcs {
		ivc := &r.ivcs[i]
		ivc.buf = ivc.buf[:0]
		ivc.head = 0
		ivc.routed, ivc.allocated = false, false
		ivc.route = 0
		ivc.outVC = 0
	}
	for p := 0; p < r.numPorts; p++ {
		op := r.outputs[p]
		op.entries = op.entries[:0]
		for v := range op.vcOwner {
			op.vcOwner[v] = 0
			op.credits[v] = cfg.BufDepth
		}
		op.disabled = false
		op.saPtr, op.vaPtr = 0, 0
		op.lastProgress = 0
		op.FlitsSent, op.FlitsRecv = 0, 0
		op.Retransmissions, op.RouteViolations = 0, 0
	}
	r.resetActivity()
}

// wake refreshes the stall clocks of a router that is receiving its first
// flit after an idle stretch. While a router is idle, Step skips it — so
// the per-port lastProgress updates phaseLT would have performed each idle
// cycle are applied in one batch here, keeping the Occupancy stall detector
// oblivious to the skip.
func (r *Router) wake(cycle uint64) {
	if !r.idle() {
		return
	}
	for p := 0; p < r.numPorts; p++ {
		r.outputs[p].lastProgress = cycle
	}
}

// deposit pushes a flit into an input VC, waking the router if it was idle.
func (r *Router) deposit(port, vc int, bf bufFlit, cycle uint64) {
	r.wake(cycle)
	r.input(port, vc).push(bf)
	r.markOccupied(r.occBit(port, vc))
	r.gainIn(1)
}

// hasWorkFor reports whether any input VC holds a flit destined for the
// given output port — used by the stall detector to distinguish an idle
// port from a starved one.
func (r *Router) hasWorkFor(port int) bool {
	return r.routedTo[port]&r.occ != 0
}

// phaseRC computes routes for head flits that reached the front of their VC
// buffer (the BW/RC pipeline stage). It also retires debris left by link
// disabling or in-flight head swallowing: heads whose computed route now
// points at a dead port are re-routed, and orphaned body/tail flits of
// truncated packets are dropped.
func (r *Router) phaseRC(route RouteFunc, l *flit.Layout, cycle uint64, cnt *Counters) {
	// Walk only the occupied input VCs, in the same ascending (port, vc)
	// order as the full sweep (bit index == p*vcs+v is monotone in it).
	for m := r.occ; m != 0; m &= m - 1 {
		idx := uint(bits.TrailingZeros64(m))
		ivc := &r.ivcs[idx]
		for {
			f := ivc.front()
			if f == nil || f.readyAt > cycle {
				// Not yet visible to the pipeline: an obfuscated flit
				// is opaque until L-Ob has undone it (the 1-2 cycle
				// penalty of Figure 7), so route computation waits.
				break
			}
			if !f.f.IsHead() && !ivc.routed {
				// Orphan: its head was dropped with a disabled link or
				// swallowed in flight by a drop trojan.
				ivc.pop()
				r.loseIn(1)
				cnt.DroppedFlits++
				cnt.DroppedOrphan++
				if pv := r.bitPV[idx]; r.ups[pv.port] != nil {
					r.ups[pv.port].credits[pv.vc]++ // freed slot
				}
				continue
			}
			if f.f.IsHead() && ivc.routed && !ivc.allocated &&
				r.outputs[ivc.route].disabled {
				ivc.routed = false // stale route to a dead port
				r.unrouteInput(ivc.route, idx)
			}
			if f.f.IsHead() && !ivc.routed {
				ivc.route = route(r.id, int(l.DstR(f.f.Payload)))
				ivc.routed = true
				r.routeInput(ivc.route, idx)
			}
			break
		}
		if ivc.empty() {
			r.clearOccupied(idx) // drained by the orphan drop
		}
	}
}

// phaseVA allocates the downstream virtual channel to routed head flits.
// VCs are static along the path (the header's VC field, which is also what
// the TASP trojan snoops), so allocation normally means acquiring ownership
// of the same-numbered VC at the chosen output; on dateline links of
// wraparound topologies the packet's lane is remapped into the VC class the
// dateline scheme demands (outVCFor). Round-robin across input ports
// resolves contention.
func (r *Router) phaseVA(l *flit.Layout) {
	n := r.numPorts * r.vcs
	for o := 0; o < r.numPorts; o++ {
		// Round-robin over the VCs requesting this output — routed,
		// unallocated heads bound for o — scanning from vaPtr up, then
		// wrapping to the bits below it: bit order equals the (vaPtr+k)%n
		// probe order of a full sweep over the VCs that could be granted.
		req := r.reqVA & r.routedTo[o]
		if req == 0 {
			continue
		}
		op := r.outputs[o]
		ptr := op.vaPtr // in [0, n]: a grant stores idx+1 with idx < n
		if ptr == n {
			ptr = 0
		}
		m, base := req>>uint(ptr), ptr
		for pass := 0; pass < 2; pass, m, base = pass+1, req&(uint64(1)<<uint(ptr)-1), 0 {
			for ; m != 0; m &= m - 1 {
				idx := base + bits.TrailingZeros64(m)
				ivc := &r.ivcs[idx]
				f := ivc.front()
				ov := op.outVCFor(r.vcs, int(r.bitPV[idx].vc), int(l.DstR(f.f.Payload)))
				if op.vcOwner[ov] != 0 {
					continue // downstream VC held by another packet
				}
				op.vcOwner[ov] = f.f.PacketID + 1
				ivc.allocated = true
				ivc.outVC = uint8(ov)
				r.grantVA(uint(idx))
				op.vaPtr = idx + 1
				pass = 2 // one VC allocation per output per cycle
				break
			}
		}
	}
}

// outVCFor maps an input VC index to the downstream VC the packet must
// occupy: the identity except on links with a dateline VC-class table,
// where the packet keeps its lane within a class half but moves between
// halves as the class changes.
func (op *outputPort) outVCFor(vcs, v, dst int) int {
	if op.vcClass == nil {
		return v
	}
	half := vcs / 2
	return v%half + int(op.vcClass[dst])*half
}

// phaseSAST performs switch allocation and switch traversal: one winning
// flit per output port (and at most one per input port) moves through the
// crossbar into the output retransmission buffer. Freed input slots return
// a credit upstream.
func (r *Router) phaseSAST(cfg *Config, cycle uint64) {
	var inputUsed [MaxPorts]bool
	capacity := retransCap(cfg)
	n := r.numPorts * r.vcs
	for o := 0; o < r.numPorts; o++ {
		// Round-robin over the occupied input VCs routed to this output
		// (same two-segment mask walk as phaseVA); grants from earlier
		// output ports have already cleared the bits of drained VCs.
		req := r.routedTo[o] & r.occ
		if req == 0 {
			continue
		}
		op := r.outputs[o]
		if op.full(capacity) || op.disabled {
			continue
		}
		ptr := op.saPtr // in [0, n]: a grant stores idx+1 with idx < n
		if ptr == n {
			ptr = 0
		}
		m, base := req>>uint(ptr), ptr
		for pass := 0; pass < 2; pass, m, base = pass+1, req&(uint64(1)<<uint(ptr)-1), 0 {
			for ; m != 0; m &= m - 1 {
				idx := base + bits.TrailingZeros64(m)
				pv := r.bitPV[idx]
				if inputUsed[pv.port] {
					continue
				}
				ivc := &r.ivcs[idx]
				f := ivc.front()
				if f.readyAt > cycle {
					continue
				}
				if f.f.IsHead() && !ivc.allocated {
					continue
				}
				// Downstream-facing state (credits, retransmission slots,
				// parked entries) lives in the VA-allocated output VC, which
				// differs from the input VC index only across dateline links.
				ov := int(ivc.outVC)
				if !op.hasSpace(cfg, ov) {
					continue
				}
				// The downstream buffer slot is reserved here, at switch
				// allocation: a flit never enters the retransmission buffer
				// without a credit. This keeps the shared post-crossbar
				// buffer free of credit-starved entries, which would
				// otherwise create cross-VC dependency cycles and deadlock
				// the healthy network.
				if !op.ejection && op.credits[ov] <= 0 {
					continue
				}
				// Grant: traverse the crossbar into the retransmission buffer.
				fl := ivc.pop()
				r.loseIn(1)
				if ivc.empty() {
					r.clearOccupied(uint(idx))
				}
				if !op.ejection {
					op.credits[ov]--
				}
				inputUsed[pv.port] = true
				op.saPtr = idx + 1
				//nocvet:allowalloc bounded: entries is pre-sized to retransCap at construction and hasSpace admits at most that many
				op.entries = append(op.entries, retransEntry{
					f: fl, vc: uint8(ov), enqueuedAt: cycle,
				})
				r.gainParked(1)
				if fl.IsTail() {
					ivc.routed = false
					ivc.allocated = false
					r.retireRouted(o, uint(idx))
				}
				if up := r.ups[pv.port]; up != nil {
					up.credits[pv.vc]++
				}
				pass = 2 // one grant per output port per cycle
				break
			}
		}
	}
}
