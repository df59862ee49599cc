package noc

import (
	"fmt"
	"math/bits"

	"tasp/internal/flit"
)

// LinkInfo describes one directed router-to-router link.
type LinkInfo struct {
	ID       int
	From     int // source router
	FromPort int // output port at the source
	To       int // destination router
	ToPort   int // input port at the destination
	// FromName is the topology's name for FromPort (e.g. "east", "cw").
	FromName string
}

// String renders the link for logs ("r5 east -> r6").
func (l LinkInfo) String() string {
	name := l.FromName
	if name == "" {
		name = PortName(l.FromPort)
	}
	return fmt.Sprintf("r%d %s -> r%d", l.From, name, l.To)
}

// LinkIndex maps each (router, output port) pair to the id of the link
// that leaves the router on that port, so a walk along a route finds each
// hop's link with one load.
type LinkIndex []int32

// IndexLinks builds the LinkIndex of a network of the given router count
// from its links, indexed by id. A port that drives no link maps to -1.
func IndexLinks(routers int, links []LinkInfo) LinkIndex {
	at := make(LinkIndex, routers*MaxPorts)
	for i := range at {
		at[i] = -1
	}
	for _, l := range links {
		at[l.From*MaxPorts+l.FromPort] = int32(l.ID)
	}
	return at
}

// Link returns the id of the link leaving router on port, -1 if the port
// drives none.
func (x LinkIndex) Link(router, port int) int { return int(x[router*MaxPorts+port]) }

// Counters aggregates cumulative simulation statistics.
type Counters struct {
	InjectedPackets  uint64
	InjectedFlits    uint64
	DeliveredPackets uint64
	DeliveredFlits   uint64
	Retransmissions  uint64 // NACKed link traversals
	CorrectedFaults  uint64 // single-bit errors fixed by SECDED
	InjectFailures   uint64 // packets rejected by a full injection queue
	// DroppedFlits is the total of every flit loss, split by cause below:
	// DroppedFlits == DroppedRetrans + DroppedInFlight + DroppedOrphan +
	// DroppedReconfig always (audited by CheckInvariants). The split keeps
	// drop-attack accounting honest — mitigation-induced losses (giving up
	// after MaxAttempts, disabling a link) must not be conflated with
	// trojan-induced in-flight losses.
	DroppedFlits uint64
	// DroppedRetrans counts flits abandoned after MaxAttempts NACKed
	// traversals (retransmission exhaustion — mitigation-induced).
	DroppedRetrans uint64
	// DroppedInFlight counts flits an adversary swallowed on a link with a
	// forged ACK (trojan-induced; the drop-attack family).
	DroppedInFlight uint64
	// DroppedOrphan counts headless body/tail flits discarded at a buffer
	// front — collateral of whatever beheaded their packet (a disabled
	// link or a swallowed head).
	DroppedOrphan uint64
	// DroppedReconfig counts flits discarded when a link was
	// administratively disabled (rerouting reconfiguration).
	DroppedReconfig uint64
	LatencySum      uint64
	MaxLatency      uint64
}

// AvgLatency returns the mean end-to-end packet latency in cycles.
func (c Counters) AvgLatency() float64 {
	if c.DeliveredPackets == 0 {
		return 0
	}
	return float64(c.LatencySum) / float64(c.DeliveredPackets)
}

// Occupancy is a point-in-time utilisation snapshot, the quantity plotted in
// the paper's Figures 11 and 12.
type Occupancy struct {
	Cycle         uint64
	InputFlits    int // flits buffered across all input VC buffers
	OutputFlits   int // flits parked in retransmission buffers
	InjectionFlit int // flits waiting in core injection queues
	// BlockedRouters counts routers with at least one completely stalled
	// (full) non-local output retransmission buffer — back-pressure.
	BlockedRouters int
	// AllCoresFull counts routers whose every core injection queue is full.
	AllCoresFull int
	// HalfCoresFull counts routers with more than half their cores full.
	HalfCoresFull int
}

// Network is the whole simulated NoC.
type Network struct {
	cfg     Config
	layout  flit.Layout
	topo    Topology
	routers []*Router
	nis     []*NI
	links   []LinkInfo
	route   RouteFunc
	cycle   uint64

	// baseRoute is the topology's default route table installed at New;
	// Reset restores it after a SetRoute/SetAdaptiveRoute replacement.
	baseRoute RouteFunc

	nextPacketID uint64
	Counters     Counters

	// routePristine is true while the installed route function is the
	// topology's deterministic default. Only then can the receiving side of
	// a link check route conformance (a head arriving on a port the route
	// function would not have chosen for its carried destination — the
	// misroute-trojan signature) without false positives; SetRoute and
	// SetAdaptiveRoute clear it, Reset restores it.
	routePristine bool

	// vcReclassed is set by ReclassifyVCs so Reset knows the dateline
	// VC-class tables were rebuilt for a reconfigured route table and must
	// be restored to the constructor's minimal-route values, which
	// baseClasses holds per link id (the topology's VCClasses, nil on the
	// mesh).
	vcReclassed bool
	baseClasses [][]uint8

	// sched holds the per-phase active sets and global flit counters of
	// the event-driven core (see sched.go).
	sched *scheduler

	// schedule, when set, gates link traversals by (cycle, vc): TDM QoS
	// baselines partition link bandwidth between domains with it. A nil
	// schedule admits everything.
	schedule func(cycle uint64, vc uint8) bool

	// telemetry is the blocked-port tap (nil until EnableTelemetry).
	telemetry *LinkTelemetry

	// injScratch is the reusable flitisation buffer of Inject: enqueue
	// copies the flits into the NI queue, so the scratch never escapes and
	// the loaded injection path stays allocation-free.
	injScratch []flit.Flit
}

// New builds a network from the configuration, fully wired with healthy
// links and the topology's deterministic deadlock-free routing.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology()
	n := &Network{cfg: cfg, layout: cfg.Layout(), topo: topo}
	n.route = RouteTable(topo)
	n.baseRoute = n.route
	n.routePristine = true
	R := topo.Routers()
	n.sched = newScheduler(R)
	bitPV := bitTable(cfg.VCs)
	for r := 0; r < R; r++ {
		ports := topo.NumPorts(r)
		if ports < 2 || ports > MaxPorts {
			return nil, fmt.Errorf("noc: topology %s declares %d ports on router %d (supported: 2..%d)",
				topo.Name(), ports, r, MaxPorts)
		}
		n.routers = append(n.routers, newRouter(r, &cfg, ports, bitPV))
		n.nis = append(n.nis, newNI(r, cfg, n.layout))
		n.routers[r].sched = n.sched
		n.nis[r].sched = n.sched
	}
	// The dateline VC-class tables (nil on the mesh): each link's output
	// port gets its own copy of its table, which ReclassifyVCs rewrites:
	// vcClass[dst] = the class a packet destined for dst occupies in the
	// downstream buffer of that specific link.
	n.baseClasses = topo.VCClasses()
	specs := topo.Links()
	n.links = make([]LinkInfo, 0, len(specs))
	for id, ls := range specs {
		n.links = append(n.links, LinkInfo{
			ID: id, From: ls.From, FromPort: ls.FromPort, To: ls.To, ToPort: ls.ToPort,
			FromName: topo.PortName(ls.From, ls.FromPort),
		})
		op := n.routers[ls.From].outputs[ls.FromPort]
		op.linkID = id
		op.wire = perfectWire{}
		if n.baseClasses != nil {
			op.vcClass = append([]uint8(nil), n.baseClasses[id]...)
		}
		n.routers[ls.To].ups[ls.ToPort] = op
	}
	return n, nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Layout returns the flit-header layout the network encodes packets with
// (derived from the configuration at construction).
func (n *Network) Layout() flit.Layout { return n.layout }

// Topology returns the network's substrate.
func (n *Network) Topology() Topology { return n.topo }

// Cycle returns the current simulation time.
func (n *Network) Cycle() uint64 { return n.cycle }

// DefaultRoute returns the topology's default route table New built, the
// one Reset reinstalls whatever SetRoute or SetAdaptiveRoute installed
// since: the analytic models walk it instead of building their own.
func (n *Network) DefaultRoute() RouteFunc { return n.baseRoute }

// Links returns a fresh copy of the descriptors of every directed
// router-to-router link. The copy is safe to retain and mutate, but it
// allocates on every call — hot-loop callers (telemetry consumers, the
// localization layer, per-point campaign setup) should use LinkSlice.
func (n *Network) Links() []LinkInfo { return append([]LinkInfo(nil), n.links...) }

// LinkSlice returns the network's link descriptors as a shared, read-only
// slice: the non-allocating accessor for hot loops. The slice is owned by
// the network and must not be modified or resized by callers; it is stable
// for the network's lifetime (links are fixed at construction and survive
// Reset).
func (n *Network) LinkSlice() []LinkInfo { return n.links }

// Reset restores a constructed network to its post-New state without
// allocating: buffers and retransmission entries are emptied, scheduler
// bitmaps and counters cleared, every link's wire restored to the healthy
// one, disabled links revived, the topology's default route table
// reinstalled, and all clocks rewound to zero. An attached telemetry
// tap survives (observation-only state) but is cleared; delivery callbacks
// and TDM schedules are removed. A reset network is behaviourally
// indistinguishable from a freshly constructed one — the campaign engine's
// per-worker arenas lean on exactly that equivalence to reuse networks
// across scenario points instead of reallocating.
func (n *Network) Reset() {
	n.cycle = 0
	n.nextPacketID = 0
	n.Counters = Counters{}
	n.route = n.baseRoute
	n.routePristine = true
	n.schedule = nil
	n.sched.reset()
	for _, r := range n.routers {
		r.reset(&n.cfg)
	}
	for _, ni := range n.nis {
		ni.reset()
	}
	for _, l := range n.links {
		n.routers[l.From].outputs[l.FromPort].wire = perfectWire{}
	}
	if n.vcReclassed {
		for i, cl := range n.baseClasses {
			l := &n.links[i]
			copy(n.routers[l.From].outputs[l.FromPort].vcClass, cl)
		}
		n.vcReclassed = false
	}
	if n.telemetry != nil {
		n.telemetry.Reset()
	}
}

// LinkOutput returns the output port driving the given link, exposing its
// per-link counters.
func (n *Network) LinkOutput(linkID int) *outputPort {
	l := n.links[linkID]
	return n.routers[l.From].outputs[l.FromPort]
}

// SetWire replaces the Wire of one link (to install a compromised or secured
// link). It panics on an invalid link id.
func (n *Network) SetWire(linkID int, w Wire) {
	l := n.links[linkID]
	n.routers[l.From].outputs[l.FromPort].wire = w
}

// DisableLink marks a link permanently failed: the switch allocator stops
// granting flits to it. Used by the rerouting baseline after BIST flags a
// permanent fault. As in Ariadne-style reconfiguration, in-flight traffic
// committed to the dead link is dropped: the parked retransmission entries
// and any input-VC contents already routed toward the port. Orphaned body
// flits of truncated packets are discarded when they reach a buffer front
// (see phaseRC).
func (n *Network) DisableLink(linkID int) {
	l := n.links[linkID]
	r := n.routers[l.From]
	op := r.outputs[l.FromPort]
	r.disableOutput(l.FromPort)
	n.Counters.DroppedFlits += uint64(len(op.entries))
	n.Counters.DroppedReconfig += uint64(len(op.entries))
	r.loseParked(len(op.entries))
	op.entries = op.entries[:0]
	for v := range op.vcOwner {
		op.vcOwner[v] = 0
	}
	for p := 0; p < r.numPorts; p++ {
		for v := 0; v < r.vcs; v++ {
			ivc := r.input(p, v)
			if ivc.routed && ivc.route == l.FromPort {
				dropped := ivc.clear()
				r.clearOccupied(r.occBit(p, v))
				r.unrouteInput(l.FromPort, r.occBit(p, v))
				n.Counters.DroppedFlits += uint64(dropped)
				n.Counters.DroppedReconfig += uint64(dropped)
				r.loseIn(dropped)
				if up := r.ups[p]; up != nil {
					up.credits[v] += dropped // freed slots
				}
				ivc.routed = false
				ivc.allocated = false
			}
		}
	}
}

// LinkDisabled reports whether the link has been disabled.
func (n *Network) LinkDisabled(linkID int) bool {
	l := n.links[linkID]
	return n.routers[l.From].outputs[l.FromPort].disabled
}

// stallThreshold is the number of progress-free cycles after which an
// output port holding work counts as blocked. It separates deadlock from
// transient congestion.
const stallThreshold = 50

// portBlocked is the one blocked-port rule, shared by LinkBlocked,
// telemetry's Sample and Occupancy's BlockedRouters: the port is not
// disabled, its router holds work, and nothing has crossed it for
// stallThreshold cycles. Idle routers are skipped by Step, so their
// progress clocks are stale by design (wake refreshes them); with no flits
// anywhere they cannot be blocked.
func (n *Network) portBlocked(r *Router, op *outputPort) bool {
	return !op.disabled && !r.idle() && n.cycle-op.lastProgress >= stallThreshold
}

// LinkBlocked reports whether the link's output port is currently stalled
// (portBlocked). The secure-ack monitor uses it to separate congestion
// (blocked ports explain missing deliveries) from in-flight loss (a growing
// sent/received gap on a link that is demonstrably flowing).
func (n *Network) LinkBlocked(linkID int) bool {
	l := n.links[linkID]
	r := n.routers[l.From]
	return n.portBlocked(r, r.outputs[l.FromPort])
}

// SetRoute replaces the routing function (rerouting baselines install
// fault-aware tables here). Route conformance checking stops: arrivals can
// no longer be validated against the default table.
func (n *Network) SetRoute(fn RouteFunc) {
	n.route = fn
	n.routePristine = false
}

// SetAdaptiveRoute installs a turn-model adaptive routing function: at RC
// time the router picks, among the candidates, the output with the most
// free downstream credits (ties broken by candidate order, so the first
// candidate is the deterministic fallback).
func (n *Network) SetAdaptiveRoute(fn AdaptiveRouteFunc) {
	n.routePristine = false
	n.route = func(router, dst int) int {
		cands := fn(router, dst)
		best, bestScore := cands[0], -1<<30
		for _, p := range cands {
			op := n.routers[router].outputs[p]
			if op.disabled {
				continue
			}
			score := 0
			for _, c := range op.credits {
				score += c
			}
			score -= 2 * len(op.entries)
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		return best
	}
}

// SetLinkSchedule installs a TDM link-admission gate: a router-to-router
// traversal on virtual channel vc may only happen in cycles for which the
// schedule returns true. Ejection to the local NI is never gated.
func (n *Network) SetLinkSchedule(fn func(cycle uint64, vc uint8) bool) {
	n.schedule = fn
}

// SetDelivered installs a delivery callback on every NI.
func (n *Network) SetDelivered(fn func(d Delivery)) {
	for _, ni := range n.nis {
		ni.Delivered = fn
	}
}

// Inject submits a packet from a core. The header's source fields are
// overwritten to match the core; the packet id and injection cycle are
// assigned here. It returns false (and counts an InjectFailure) when the
// core's injection queue cannot hold the packet.
func (n *Network) Inject(core int, p *flit.Packet) bool {
	r := n.cfg.CoreRouter(core)
	c := core - r*n.cfg.Concentration
	p.Hdr.SrcR = uint8(r)
	p.Hdr.SrcC = uint8(c)
	p.ID = n.nextPacketID
	p.Inject = n.cycle
	if n.nis[r].coreFull(c, p.NumFlits()) {
		// Refused before the flits are built: most injections into a
		// saturated network are.
		n.Counters.InjectFailures++
		return false
	}
	fs := p.AppendFlits(n.injScratch[:0], &n.layout)
	n.injScratch = fs[:0]
	n.nis[r].enqueue(c, fs)
	n.nextPacketID++
	n.Counters.InjectedPackets++
	n.Counters.InjectedFlits += uint64(len(fs))
	return true
}

// Step advances the whole network by one clock cycle. Phase order within a
// step models the router pipeline: the combined SA/ST phase, VA and RC
// operate on state registered in earlier cycles, then LT moves flits across
// links (including the ECC/obfuscation/trojan path inside each Wire), then
// injection fills the local input ports. A hop costs a head flit 4 cycles
// at zero load (RC, VA, SA/ST, LT).
func (n *Network) Step() {
	n.cycle++
	// Each phase iterates only its active set — the routers the old full
	// sweep would not have skipped — in the same ascending-id order, so
	// mid-phase interactions (credits returned upstream during SA, flits
	// deposited downstream during LT) happen exactly as under the sweep.
	// Per-word snapshots are safe: a phase only clears the bit of the
	// router it is processing, and a router woken mid-LT by a deposit is a
	// state no-op if visited (wake already refreshed its clocks).
	s := n.sched
	for wi, w := range s.actIn.w {
		for ; w != 0; w &= w - 1 {
			n.routers[wi<<6+bits.TrailingZeros64(w)].phaseSAST(&n.cfg, n.cycle)
		}
	}
	for wi, w := range s.actIn.w {
		for ; w != 0; w &= w - 1 {
			n.routers[wi<<6+bits.TrailingZeros64(w)].phaseVA()
		}
	}
	for wi, w := range s.actIn.w {
		for ; w != 0; w &= w - 1 {
			n.routers[wi<<6+bits.TrailingZeros64(w)].phaseRC(n.route, &n.layout, n.cycle, &n.Counters)
		}
	}
	for wi := range s.actOut.w {
		w := s.actIn.w[wi] | s.actOut.w[wi] // LT also refreshes input-only routers
		for ; w != 0; w &= w - 1 {
			r := n.routers[wi<<6+bits.TrailingZeros64(w)]
			for p := 0; p < r.numPorts; p++ {
				op := r.outputs[p]
				if len(op.entries) == 0 {
					// Entry-free (or disabled, which implies entry-free)
					// ports only refresh their stall clock; skip the call.
					if op.disabled || !r.hasWorkFor(p) {
						op.lastProgress = n.cycle
					}
					continue
				}
				n.phaseLT(op)
			}
		}
	}
	for wi, w := range s.actNI.w {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			// A refused NI retries only once a VC that refused it has a
			// free slot (or new flits arrive): until then inject would
			// refuse again and change nothing.
			if ni, r := n.nis[i], n.routers[i]; !ni.waiting(r) {
				ni.inject(r, n.cycle)
			}
		}
	}
}

// Run advances the network by k cycles.
//
//nocvet:keep the noc, reroute, routing, qos and trace tests step their networks with it
func (n *Network) Run(k int) {
	for i := 0; i < k; i++ {
		n.Step()
	}
}

// phaseLT attempts one link traversal on an output port holding parked
// entries (Step refreshes the other ports' stall clocks itself; a disabled
// port holds none): the first sendable retransmission-buffer entry crosses
// the Wire; on ACK it is retired and the flit deposited downstream, on NACK
// it waits RetransPenalty cycles and the attempt counter feeds the Wire's
// obfuscation escalation. Entries of a blocked VC may be overtaken by
// entries of other VCs (Figure 7's flit 3 passing the stalled flit 2), but
// per-VC order is preserved for wormhole integrity.
func (n *Network) phaseLT(op *outputPort) {
	var blocked [MaxVCs]bool // per-VC
	pick := -1
	for i := range op.entries {
		e := &op.entries[i]
		if blocked[e.vc] {
			continue
		}
		if e.nextTry > n.cycle || e.enqueuedAt >= n.cycle ||
			(!op.ejection && n.schedule != nil && !n.schedule(n.cycle, e.vc)) {
			blocked[e.vc] = true
			continue
		}
		pick = i
		break
	}
	if pick < 0 {
		return
	}
	e := &op.entries[pick]
	delivered, res := op.wire.Transmit(n.cycle, e.f, e.vc, e.attempts)
	if res.Corrected {
		n.Counters.CorrectedFaults++
	}
	if !res.OK {
		e.attempts++
		e.nextTry = n.cycle + uint64(n.cfg.RetransPenalty)
		op.Retransmissions++
		n.Counters.Retransmissions++
		if n.cfg.MaxAttempts > 0 && e.attempts >= n.cfg.MaxAttempts {
			if !op.ejection {
				op.credits[e.vc]++ // release the reserved downstream slot
			}
			if e.f.IsTail() {
				// The packet is done from this output's perspective: release
				// the VC ownership the head acquired at VA, exactly as a
				// delivered tail would, or the VC leaks forever.
				op.vcOwner[e.vc] = 0
			}
			n.Counters.DroppedFlits++
			n.Counters.DroppedRetrans++
			op.entries = append(op.entries[:pick], op.entries[pick+1:]...)
			n.routers[op.router].loseParked(1)
		}
		return
	}
	op.FlitsSent++
	op.lastProgress = n.cycle
	if delivered.IsTail() {
		op.vcOwner[e.vc] = 0
	}
	if res.Swallowed {
		// Forged ACK: the sender's bookkeeping above ran exactly as on a real
		// delivery (entry retired, FlitsSent counted, tail ownership released)
		// — that is the attack's cover. But nothing arrives downstream, so
		// the buffer slot reserved at switch allocation returns its credit
		// and the loss is booked as trojan-induced. The beheaded packet's
		// later flits cross normally and die as orphans at the downstream
		// buffer front (phaseRC).
		if !op.ejection {
			op.credits[e.vc]++
		}
		n.Counters.DroppedFlits++
		n.Counters.DroppedInFlight++
		op.entries = append(op.entries[:pick], op.entries[pick+1:]...)
		n.routers[op.router].loseParked(1)
		return
	}
	op.FlitsRecv++
	if op.ejection {
		n.Counters.DeliveredFlits++
		if done, lat := n.nis[op.router].receive(delivered, e.vc, n.cycle); done {
			n.Counters.DeliveredPackets++
			n.Counters.LatencySum += lat
			if lat > n.Counters.MaxLatency {
				n.Counters.MaxLatency = lat
			}
		}
	} else {
		// The credit for this slot was already reserved at switch
		// allocation; deposit without touching the counter.
		l := &n.links[op.linkID]
		if delivered.IsHead() && n.routePristine &&
			n.route(l.From, int(n.layout.DstR(delivered.Payload))) != l.FromPort {
			// Route conformance: under the topology's deterministic default
			// table the sending router would never have granted this output
			// for the destination the header now carries — the signature of
			// an in-flight header rewrite (misroute trojan). The check lives
			// at the receiving end of the wire, downstream of the adversary.
			op.RouteViolations++
		}
		n.routers[l.To].deposit(l.ToPort, int(e.vc), bufFlit{
			f:       delivered,
			readyAt: n.cycle + 1 + uint64(res.Stall),
		}, n.cycle)
	}
	op.entries = append(op.entries[:pick], op.entries[pick+1:]...)
	n.routers[op.router].loseParked(1)
}

// refPacketFlits is the packet size Occupancy judges "core full" bins by: a
// core whose injection queue cannot take a packet this long counts as full.
const refPacketFlits = 5

// Occupancy computes the utilisation snapshot the paper plots in Figures 11
// and 12.
func (n *Network) Occupancy() Occupancy {
	return n.OccupancyWhere(nil, nil)
}

// OccupancyWhere computes a filtered snapshot: only VCs with vcIn(vc) true
// and cores with coreIn(globalCoreID) true are counted (nil means all).
// TDM experiments use it to split utilisation per domain (Figure 12's D1
// and D2 series).
func (n *Network) OccupancyWhere(vcIn func(vc int) bool, coreIn func(core int) bool) Occupancy {
	allVC := func(int) bool { return true }
	allCore := func(int) bool { return true }
	if vcIn == nil {
		vcIn = allVC
	}
	if coreIn == nil {
		coreIn = allCore
	}
	o := Occupancy{Cycle: n.cycle}
	for i, r := range n.routers {
		blocked := false
		for p := 0; p < r.numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				if vcIn(v) {
					o.InputFlits += r.input(p, v).size()
				}
			}
			op := r.outputs[p]
			for _, e := range op.entries {
				if vcIn(int(e.vc)) {
					o.OutputFlits++
				}
			}
			if p != PortLocal && n.portBlocked(r, op) {
				blocked = true
			}
		}
		if blocked {
			o.BlockedRouters++
		}
		full, cores := 0, 0
		for c := 0; c < n.cfg.Concentration; c++ {
			if !coreIn(i*n.cfg.Concentration + c) {
				continue
			}
			cores++
			o.InjectionFlit += n.nis[i].qlen(c)
			if n.nis[i].coreFull(c, refPacketFlits) {
				full++
			}
		}
		if cores > 0 && full == cores {
			o.AllCoresFull++
		}
		if cores > 0 && full*2 > cores {
			o.HalfCoresFull++
		}
	}
	return o
}
