package noc

// This file implements the event-driven simulator core: per-phase active
// sets, so Step cost scales with the flits in flight rather than the
// router count.
//
// Membership is maintained at the same counter edges the old sweep's skip
// conditions tested:
//
//	actIn[r]  <=> routers[r].inFlits > 0   (SA/ST, VA, RC eligibility)
//	actOut[r] <=> routers[r].parked  > 0   (LT eligibility, with actIn)
//	actNI[r]  <=> nis[r].total       > 0   (injection eligibility)
//
// so iterating an active set visits exactly the routers the full sweep
// would not have skipped. Phase order inside Step is unchanged; see
// DESIGN.md §9 for why per-word snapshot iteration preserves the sweep's
// semantics bit for bit.

// activeSet is a bitmap over router ids (<= 256 routers, <= 4 words).
type activeSet struct {
	w []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{w: make([]uint64, (n+63)/64)}
}

func (s activeSet) set(i int)      { s.w[i>>6] |= 1 << uint(i&63) }
func (s activeSet) clear(i int)    { s.w[i>>6] &^= 1 << uint(i&63) }
func (s activeSet) has(i int) bool { return s.w[i>>6]>>uint(i&63)&1 == 1 }

// scheduler tracks which routers and NIs can make progress in each pipeline
// phase, and how many flits the network holds in total (the counters size
// checkpoints and are audited against the per-router tallies).
type scheduler struct {
	actIn  activeSet // routers with buffered input flits
	actOut activeSet // routers with parked retransmission entries
	actNI  activeSet // routers whose NI holds injection-queue flits

	flitsIn     int // sum of Router.inFlits
	flitsParked int // sum of Router.parked
	flitsNI     int // sum of NI.total
}

func newScheduler(routers int) *scheduler {
	return &scheduler{
		actIn:  newActiveSet(routers),
		actOut: newActiveSet(routers),
		actNI:  newActiveSet(routers),
	}
}

// gainIn/loseIn, gainParked/loseParked and NI.gain/lose are the only
// mutation points of the activity counters: every buffer edge flows through
// them, so set membership can never drift from the counters.

func (r *Router) gainIn(k int) {
	if r.inFlits == 0 {
		r.sched.actIn.set(r.id)
	}
	r.inFlits += k
	r.sched.flitsIn += k
}

func (r *Router) loseIn(k int) {
	r.inFlits -= k
	r.sched.flitsIn -= k
	if r.inFlits == 0 {
		r.sched.actIn.clear(r.id)
	}
}

func (r *Router) gainParked(k int) {
	if r.parked == 0 {
		r.sched.actOut.set(r.id)
	}
	r.parked += k
	r.sched.flitsParked += k
}

func (r *Router) loseParked(k int) {
	r.parked -= k
	r.sched.flitsParked -= k
	if r.parked == 0 {
		r.sched.actOut.clear(r.id)
	}
}

func (ni *NI) gain(k int) {
	if ni.total == 0 {
		ni.sched.actNI.set(ni.router)
	}
	ni.total += k
	ni.sched.flitsNI += k
	ni.refusedBy = 0 // new flits may be admissible: retry next cycle
}

func (ni *NI) lose(k int) {
	ni.total -= k
	ni.sched.flitsNI -= k
	if ni.total == 0 {
		ni.sched.actNI.clear(ni.router)
	}
}

// The occupancy/request-mask helpers below are the only mutation points of
// occ, routedTo, reqVA, deadOut and NI.refusedBy — the state the
// arbitration scans (phaseSAST, phaseVA, phaseRC, hasWorkFor) and the NI
// skip trust instead of probing buffers. Keeping every transition here
// (enforced by nocvet's telemetrysafe analyzer) means the brute-force
// invariant audit certifies every way the masks can change.

// markOccupied sets the occupancy bit of input VC bit index idx (occBit).
func (r *Router) markOccupied(idx uint) { r.occ |= 1 << idx }

// clearOccupied clears the occupancy bit of a drained input VC.
func (r *Router) clearOccupied(idx uint) { r.occ &^= 1 << idx }

// routeInput records that the packet resident in input VC idx is routed to
// output o: SA may now consider it, and its head requests VA.
func (r *Router) routeInput(o int, idx uint) {
	r.routedTo[o] |= 1 << idx
	r.reqVA |= 1 << idx
}

// unrouteInput invalidates a route (dead output port, dropped packet):
// the VC neither competes for output o nor requests VA.
func (r *Router) unrouteInput(o int, idx uint) {
	r.routedTo[o] &^= 1 << idx
	r.reqVA &^= 1 << idx
}

// disableOutput marks output o dead: SA stops granting it, and RC re-routes
// the unallocated heads still routed to it (deadOut).
func (r *Router) disableOutput(o int) {
	r.outputs[o].disabled = true
	r.deadOut |= 1 << uint(o)
}

// refuse records the outcome of an injection attempt: the full local input
// VCs that refused it, or zero after a flit moved (NI.inject only).
func (ni *NI) refuse(full uint8) { ni.refusedBy = full }

// grantVA retires a VC's VA request after allocation succeeds.
func (r *Router) grantVA(idx uint) { r.reqVA &^= 1 << idx }

// retireRouted clears a VC's claim on output o when its packet's tail has
// traversed the crossbar (the route persists only head-to-tail).
func (r *Router) retireRouted(o int, idx uint) { r.routedTo[o] &^= 1 << idx }

// resetActivity clears a router's scheduler-facing state — the activity
// counters and the occupancy/request masks — back to the post-construction
// empty state. Only Network.Reset may call it: the buffers the masks mirror
// must be emptied in the same breath, or the invariant audit's
// counter/mask/buffer agreement breaks.
func (r *Router) resetActivity() { r.routerState = routerState{} }

// resetActivity clears an NI's registers — the flit counter, the
// concentrator pointer and the refusal record — alongside its emptied
// queues (Network.Reset only).
func (ni *NI) resetActivity() { ni.niState = niState{} }

// reset empties every active set and global counter (Network.Reset only;
// the per-router and per-NI resets above restore the mirrored state).
func (s *scheduler) reset() {
	for i := range s.actIn.w {
		s.actIn.w[i], s.actOut.w[i], s.actNI.w[i] = 0, 0, 0
	}
	s.flitsIn, s.flitsParked, s.flitsNI = 0, 0, 0
}
