package noc

import "sort"

// Reconfiguration-time reclamation of truncated wormholes.
//
// Two mechanisms can cut a wormhole so that its tail can never reach the
// resources its head acquired:
//
//   - A drop trojan swallowing a TAIL flit in flight. The sender's
//     bookkeeping runs exactly as on a real delivery (the forged ACK is the
//     attack's cover), so the sending port releases its ownership — but
//     downstream, every input VC the packet still occupies stays
//     routed/allocated and every output VC it owns stays owned, forever.
//     Each such wormhole permanently wedges one VC per hop of its residual
//     path; under a sustained drop attack the wedges accumulate until the
//     victim's neighbourhood has no usable VCs left. The paper's baselines
//     live with this amplification (phaseRC's orphan retirement only cleans
//     beheaded packets, not betailed ones), but a recovery that claims to
//     restore service must clean it up.
//
//   - Disabling a link a wormhole was strung across. DisableLink drops the
//     upstream remainder committed to the dead port; the downstream part —
//     head and any bodies that already crossed — keeps waiting for a tail
//     that was just dropped.
//
// DisableLinkReclaim and ReclaimTruncated are the recovery-path repair for
// both: they purge every flit and every resource claim of packets that can
// no longer complete. Only reroute.ApplySafe (conviction-driven recovery)
// calls them; the oracle Rerouting baseline keeps the plain DisableLink
// semantics the paper's Figure 10 numbers are pinned to.

// DisableLinkReclaim disables a link like DisableLink and additionally
// purges every packet that was mid-flight across it. Ownership of a link's
// output VC is granted at VC allocation and released only when the tail
// crosses, so the owners at disable time are exactly the wormholes the
// reconfiguration cuts.
func (n *Network) DisableLinkReclaim(linkID int) int {
	l := n.links[linkID]
	op := n.routers[l.From].outputs[l.FromPort]
	var cut []uint64
	for _, own := range op.vcOwner {
		if own != 0 {
			cut = append(cut, own-1)
		}
	}
	n.DisableLink(linkID)
	dropped := 0
	for _, pkt := range cut {
		dropped += n.purgePacket(pkt)
	}
	return dropped
}

// ReclaimTruncated purges every packet that holds network resources but can
// never complete: it owns an output VC (or flits in some buffer) yet its
// tail flit no longer exists anywhere — swallowed by a drop trojan or
// dropped with a disabled link. A tail still waiting in an injection queue
// or buffer keeps its packet alive. Returns the number of flits discarded
// (booked as DroppedReconfig). O(network); reconfiguration-time only.
func (n *Network) ReclaimTruncated() int {
	live := map[uint64]bool{}
	holders := map[uint64]bool{}
	for _, r := range n.routers {
		for p := 0; p < r.numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				ivc := r.input(p, v)
				for i := ivc.head; i < len(ivc.buf); i++ {
					f := &ivc.buf[i].f
					holders[f.PacketID] = true
					if f.IsTail() {
						live[f.PacketID] = true
					}
				}
			}
			op := r.outputs[p]
			for i := range op.entries {
				f := &op.entries[i].f
				holders[f.PacketID] = true
				if f.IsTail() {
					live[f.PacketID] = true
				}
			}
			for _, own := range op.vcOwner {
				if own != 0 {
					holders[own-1] = true
				}
			}
		}
	}
	for _, ni := range n.nis {
		for c := range ni.queues {
			for i := ni.heads[c]; i < len(ni.queues[c]); i++ {
				if f := &ni.queues[c][i]; f.IsTail() {
					live[f.PacketID] = true
				}
			}
		}
	}
	var doomed []uint64
	for pkt := range holders { //nocvet:orderfree doomed is sorted before use
		if !live[pkt] {
			doomed = append(doomed, pkt)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i] < doomed[j] })
	dropped := 0
	for _, pkt := range doomed {
		dropped += n.purgePacket(pkt)
	}
	return dropped
}

// purgePacket removes every flit and resource claim of one packet from the
// network: input-VC flits (with upstream credit refunds), parked
// retransmission entries (releasing the slot reserved at switch
// allocation), output VC ownerships, wormhole routing state, and any
// partial reassembly at the destination NI. Drops are booked as
// DroppedReconfig. All the audited relations (credit loops, occupancy and
// request masks, activity counters) are restored in the same breath.
func (n *Network) purgePacket(pkt uint64) int {
	dropped := 0
	for _, r := range n.routers {
		for p := 0; p < r.numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				ivc := r.input(p, v)
				idx := r.occBit(p, v)
				if ivc.empty() {
					// Empty but possibly still held mid-stream: the wormhole
					// state persists head-to-tail even with nothing buffered.
					if ivc.routed && ivc.allocated &&
						r.outputs[ivc.route].vcOwner[ivc.outVC] == pkt+1 {
						r.unrouteInput(ivc.route, idx)
						ivc.routed, ivc.allocated = false, false
					}
					continue
				}
				frontWasPkt := ivc.front().f.PacketID == pkt
				// FIFO surgery: drop the packet's flits, keep everyone else's.
				// The survivors are compacted within the live region, so the
				// front index stays valid whether or not anything was removed.
				rest := ivc.buf[ivc.head:]
				w := 0
				for i := range rest {
					if rest[i].f.PacketID != pkt {
						rest[w] = rest[i]
						w++
					}
				}
				removed := len(rest) - w
				if removed == 0 {
					continue
				}
				ivc.buf = ivc.buf[:ivc.head+w]
				r.loseIn(removed)
				dropped += removed
				if up := r.ups[p]; up != nil {
					up.credits[v] += removed // freed slots
				}
				if frontWasPkt {
					if ivc.routed {
						r.unrouteInput(ivc.route, idx)
					}
					ivc.routed, ivc.allocated = false, false
				}
				if ivc.empty() {
					r.clearOccupied(idx)
				}
			}
			op := r.outputs[p]
			w := 0
			for i := range op.entries {
				e := op.entries[i]
				if e.f.PacketID != pkt {
					op.entries[w] = e
					w++
					continue
				}
				if !op.ejection {
					op.credits[e.vc]++ // release the slot reserved at SA
				}
				dropped++
			}
			if removed := len(op.entries) - w; removed > 0 {
				op.entries = op.entries[:w]
				r.loseParked(removed)
			}
			for v := range op.vcOwner {
				if op.vcOwner[v] == pkt+1 {
					op.vcOwner[v] = 0
				}
			}
		}
	}
	for _, ni := range n.nis {
		for v := range ni.rx {
			if st := &ni.rx[v]; st.flits > 0 && st.id == pkt {
				*st = rxState{}
			}
		}
	}
	n.Counters.DroppedFlits += uint64(dropped)
	n.Counters.DroppedReconfig += uint64(dropped)
	return dropped
}
