package noc

import (
	"fmt"

	"tasp/internal/flit"
)

// CheckInvariants audits the network's internal consistency and returns the
// first violation found, or nil. It is meant for tests and long randomized
// runs: any breach indicates a simulator bug, not a workload property.
//
// Checked invariants:
//
//  1. Credit accounting: for every link, the upstream credit counter plus
//     the downstream input-VC occupancy plus in-flight reservations
//     (retransmission entries of that VC) equals the buffer depth.
//  2. Buffer bounds: no input VC or retransmission buffer exceeds its
//     capacity.
//  3. VC ownership: every owned output VC belongs to a packet that still
//     has presence somewhere (an in-flight wormhole); every retransmission
//     entry's VC is owned (by its own packet).
//  4. Wormhole front consistency: a non-head flit at the front of an input
//     VC implies the VC still holds routing state for its packet.
//  5. Activity counters: the per-router inFlits/parked tallies driving the
//     active-router skip match the actual buffer contents (a mismatch
//     would make Step silently skip a router that still holds work).
//  6. Occupancy and request masks: the occ bitmap matches buffer
//     emptiness bit for bit, routedTo[o] holds exactly the VCs whose
//     resident packet is routed to output o, and reqVA holds exactly the
//     VA-grantable VCs (routed, unallocated head at the front).
//  7. Active sets: each scheduler set's membership matches a brute-force
//     "holds work" predicate per router (input flits, parked entries,
//     queued injection flits), and the global flit counters equal the
//     per-router sums. A stale bit here is precisely the failure mode of
//     the event-driven core: a phase skipping a router that has work.
//  8. Drop accounting: the DroppedFlits total equals the sum of its
//     per-cause buckets (retransmission exhaustion, in-flight swallow,
//     orphan retirement, reconfiguration).
//  9. Stalled-work skips (DESIGN.md §9): the dead-output mask RC walks
//     matches the ports' disabled flags, every VA request's cached
//     destination equals its front head's, and an NI Step would skip
//     (waiting) cannot inject — a dry run of inject's admission checks.
//
//nocvet:keep the noc, reroute and core tests audit every stepped cycle with it
func (n *Network) CheckInvariants() error {
	c := n.Counters
	if sum := c.DroppedRetrans + c.DroppedInFlight + c.DroppedOrphan + c.DroppedReconfig; c.DroppedFlits != sum {
		return fmt.Errorf("dropped-flit split: total %d != retrans %d + inflight %d + orphan %d + reconfig %d",
			c.DroppedFlits, c.DroppedRetrans, c.DroppedInFlight, c.DroppedOrphan, c.DroppedReconfig)
	}
	for _, r := range n.routers {
		for p := 0; p < r.numPorts; p++ {
			op := r.outputs[p]
			if op.disabled {
				continue
			}
			if len(op.entries) > retransCap(&n.cfg) {
				return fmt.Errorf("r%d %s: retrans holds %d > cap %d",
					r.id, PortName(p), len(op.entries), retransCap(&n.cfg))
			}
			for _, e := range op.entries {
				if int(e.vc) >= n.cfg.VCs {
					return fmt.Errorf("r%d %s: entry with invalid vc %d", r.id, PortName(p), e.vc)
				}
				if op.vcOwner[e.vc] == 0 {
					return fmt.Errorf("r%d %s: retrans entry pkt %d on unowned vc %d",
						r.id, PortName(p), e.f.PacketID, e.vc)
				}
			}
			if p == PortLocal {
				continue // ejection has no credit loop
			}
			if op.linkID < 0 {
				continue
			}
			l := n.links[op.linkID]
			down := n.routers[l.To]
			for v := 0; v < n.cfg.VCs; v++ {
				occ := down.input(l.ToPort, v).size()
				inflight := 0
				for _, e := range op.entries {
					if int(e.vc) == v {
						inflight++
					}
				}
				if got := op.credits[v] + occ + inflight; got != n.cfg.BufDepth {
					return fmt.Errorf("link %s vc%d: credits %d + occupancy %d + inflight %d != depth %d",
						l, v, op.credits[v], occ, inflight, n.cfg.BufDepth)
				}
			}
		}
		for p := 0; p < r.numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				ivc := r.input(p, v)
				if ivc.size() > n.cfg.BufDepth {
					return fmt.Errorf("r%d %s vc%d: input holds %d > depth %d",
						r.id, PortName(p), v, ivc.size(), n.cfg.BufDepth)
				}
				if f := ivc.front(); f != nil && !f.f.IsHead() && !ivc.routed {
					// Tolerated transiently after link disabling or an
					// in-flight head swallow (orphans are retired by the next
					// RC phase); flag only when neither beheading cause has
					// occurred.
					if !n.anyDisabled() && n.Counters.DroppedInFlight == 0 {
						return fmt.Errorf("r%d %s vc%d: orphan body flit pkt %d at front",
							r.id, PortName(p), v, f.f.PacketID)
					}
				}
			}
		}
		inFlits, parked := 0, 0
		for p := 0; p < r.numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				inFlits += r.input(p, v).size()
			}
			parked += len(r.outputs[p].entries)
		}
		if r.inFlits != inFlits || r.parked != parked {
			return fmt.Errorf("r%d: activity counters inFlits=%d parked=%d, actual %d/%d",
				r.id, r.inFlits, r.parked, inFlits, parked)
		}
		if err := r.checkMasks(&n.layout); err != nil {
			return err
		}
	}
	return n.checkScheduler()
}

// checkMasks rebuilds the router's occupancy/routing/request bitmaps and
// dead-output mask from the buffer and port state and compares them bit for
// bit with the incrementally maintained masks that SA/VA/RC actually scan;
// it also checks each VA request's cached header fields against its head.
func (r *Router) checkMasks(l *flit.Layout) error {
	var occ, reqVA uint64
	var routedTo [MaxPorts]uint64
	var deadOut uint8
	for p := 0; p < r.numPorts; p++ {
		if r.outputs[p].disabled {
			deadOut |= 1 << uint(p)
		}
		for v := 0; v < r.vcs; v++ {
			ivc := r.input(p, v)
			bit := uint64(1) << r.occBit(p, v)
			if ivc.size() > 0 {
				occ |= bit
			}
			if ivc.routed {
				routedTo[ivc.route] |= bit
				if f := ivc.front(); f != nil && f.f.IsHead() && !ivc.allocated {
					reqVA |= bit
					w := f.f.Payload
					if src, dst, hvc := l.SrcR(w), l.DstR(w), l.VC(w); ivc.src != src || ivc.dst != dst || ivc.hvc != hvc {
						return fmt.Errorf("r%d %s vc%d: cached header %d->%d vc%d, head carries %d->%d vc%d",
							r.id, PortName(p), v, ivc.src, ivc.dst, ivc.hvc, src, dst, hvc)
					}
				}
			}
		}
	}
	if r.deadOut != deadOut {
		return fmt.Errorf("r%d: dead-output mask %#x, ports say %#x", r.id, r.deadOut, deadOut)
	}
	if r.occ != occ {
		return fmt.Errorf("r%d: occ mask %#x, buffers say %#x", r.id, r.occ, occ)
	}
	if r.reqVA != reqVA {
		return fmt.Errorf("r%d: reqVA mask %#x, buffers say %#x", r.id, r.reqVA, reqVA)
	}
	for o := 0; o < r.numPorts; o++ {
		if r.routedTo[o] != routedTo[o] {
			return fmt.Errorf("r%d %s: routedTo mask %#x, buffers say %#x",
				r.id, PortName(o), r.routedTo[o], routedTo[o])
		}
	}
	return nil
}

// checkScheduler cross-checks the event-driven core's active sets and global
// counters against brute-force recomputation.
func (n *Network) checkScheduler() error {
	s := n.sched
	var sumIn, sumParked, sumNI int
	for _, r := range n.routers {
		if got, want := s.actIn.has(r.id), r.inFlits > 0; got != want {
			return fmt.Errorf("r%d: actIn=%v but inFlits=%d", r.id, got, r.inFlits)
		}
		if got, want := s.actOut.has(r.id), r.parked > 0; got != want {
			return fmt.Errorf("r%d: actOut=%v but parked=%d", r.id, got, r.parked)
		}
		sumIn += r.inFlits
		sumParked += r.parked
	}
	for i, ni := range n.nis {
		queued := 0
		for c := range ni.queues {
			queued += ni.qlen(c)
		}
		if ni.total != queued {
			return fmt.Errorf("ni%d: total=%d but queues hold %d", i, ni.total, queued)
		}
		if got, want := s.actNI.has(i), ni.total > 0; got != want {
			return fmt.Errorf("ni%d: actNI=%v but total=%d", i, got, ni.total)
		}
		if r := n.routers[i]; ni.waiting(r) && ni.canInject(r) {
			return fmt.Errorf("ni%d: Step would skip it (refused by vcs %#x) but it can inject",
				i, ni.refusedBy)
		}
		sumNI += ni.total
	}
	if s.flitsIn != sumIn || s.flitsParked != sumParked || s.flitsNI != sumNI {
		return fmt.Errorf("scheduler counters in/parked/ni = %d/%d/%d, sums %d/%d/%d",
			s.flitsIn, s.flitsParked, s.flitsNI, sumIn, sumParked, sumNI)
	}
	return nil
}

// anyDisabled reports whether any link has been administratively disabled.
func (n *Network) anyDisabled() bool {
	for _, l := range n.links {
		if n.routers[l.From].outputs[l.FromPort].disabled {
			return true
		}
	}
	return false
}
