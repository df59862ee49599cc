package noc

import "tasp/internal/flit"

// Checkpoint holds a copy of a network's dynamic state: every buffered,
// parked and queued flit, the wormhole, credit, ownership and arbitration
// state around them, the per-port counters and stall clocks, the NIs'
// registers and reassembly slots, the clock, the packet id counter, the
// Counters, the scheduler's active sets and the telemetry tap's history.
// Restore puts that state back on a network of the same configuration,
// which then steps exactly as the saved one would have.
//
// A checkpoint does not hold what a network is wired with — the Wires, the
// route function, the link schedule, the delivery callback — nor anything
// that only reconfiguration changes (disabled links, rebuilt VC-class
// tables): the restoring caller installs those, identically to the saved
// network's. Its storage is reused across Save calls, so a caller that
// saves and restores repeatedly allocates only when a save holds more
// flits than any before it.
type Checkpoint struct {
	cycle, nextPacketID uint64
	counters            Counters

	routers []routerState
	ivcs    []savedVC      // every router's input VCs, router after router
	bufs    []bufFlit      // the input VCs' flits, front first, VC after VC
	ports   []savedPort    // every router's output ports, router after router
	vcs     []portVCState  // each output port's per-VC state, port after port
	entries []retransEntry // the ports' parked flits, port after port
	nis     []niState
	cores   []int         // per core: queued flits
	queued  []flit.Flit   // the cores' queued flits, front first, core after core
	locks   []int         // per NI VC: the injection lock
	rx      []rxState     // per NI VC: the reassembly slot
	act     []uint64      // the scheduler's actIn, actOut and actNI words
	flits   [3]int        // the scheduler's flitsIn, flitsParked and flitsNI
	tel     LinkTelemetry // the tap's history (telOn only)
	telOn   bool
}

// savedVC is an input VC's wormhole state and flit count.
type savedVC struct {
	flits int
	wormhole
}

// savedPort is an output port's state and parked-entry count.
type savedPort struct {
	entries int
	portState
}

// portVCState is one downstream VC's ownership and credit count.
type portVCState struct {
	owner   uint64
	credits int
}

// resize returns s with length n, reusing its backing array when it can
// hold n. Otherwise it grows to twice n, but never past limit, the most the
// network can hold: saves vary in size from point to point, and a
// checkpoint that settles on one array early allocates once per platform
// instead of once per new maximum.
func resize[T any](s []T, n, limit int) []T {
	if cap(s) < n {
		c := min(2*n, max(n, limit))
		//nocvet:allowalloc amortized: a checkpoint grows only when a save holds more than any before it
		return make([]T, n, c)
	}
	return s[:n]
}

// refill makes dst a copy of src, reusing dst's backing array. The
// network's own buffers are pre-sized to their bounds, which a restored
// buffer never exceeds, so the growth branch is cold.
func refill[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, 0, len(src)) //nocvet:allowalloc cold: every network buffer is pre-sized to the bound its saved contents respect
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Save copies the network's dynamic state into ck, replacing what ck held.
// Idle routers' stale stall clocks are saved as they are: the restored copy
// refreshes them when it wakes the router, as the saved one would have.
func (n *Network) Save(ck *Checkpoint) {
	s := n.sched
	ck.cycle, ck.nextPacketID = n.cycle, n.nextPacketID
	ck.counters = n.Counters
	var ivcs, ports, vcs, cores, niVCs int
	for _, r := range n.routers {
		ivcs += len(r.ivcs)
		ports += r.numPorts
		vcs += r.numPorts * r.vcs
	}
	for _, ni := range n.nis {
		cores += len(ni.queues)
		niVCs += len(ni.injLock)
	}
	ck.routers = resize(ck.routers, len(n.routers), 0)
	ck.ivcs = resize(ck.ivcs, ivcs, 0)
	ck.bufs = resize(ck.bufs, s.flitsIn, ivcs*n.cfg.BufDepth)
	ck.ports = resize(ck.ports, ports, 0)
	ck.vcs = resize(ck.vcs, vcs, 0)
	ck.entries = resize(ck.entries, s.flitsParked, ports*retransCap(&n.cfg))
	var iv, buf, port, vc, ent int
	for i, r := range n.routers {
		ck.routers[i] = r.routerState
		for j := range r.ivcs {
			ivc := &r.ivcs[j]
			ck.ivcs[iv] = savedVC{flits: ivc.size(), wormhole: ivc.wormhole}
			iv++
			buf += copy(ck.bufs[buf:], ivc.buf[ivc.head:])
		}
		for p := 0; p < r.numPorts; p++ {
			op := r.outputs[p]
			ck.ports[port] = savedPort{entries: len(op.entries), portState: op.portState}
			port++
			for v := range op.vcOwner {
				ck.vcs[vc] = portVCState{owner: op.vcOwner[v], credits: op.credits[v]}
				vc++
			}
			ent += copy(ck.entries[ent:], op.entries)
		}
	}
	ck.nis = resize(ck.nis, len(n.nis), 0)
	ck.cores = resize(ck.cores, cores, 0)
	ck.queued = resize(ck.queued, s.flitsNI, cores*n.cfg.InjQueueCap)
	ck.locks = resize(ck.locks, niVCs, 0)
	ck.rx = resize(ck.rx, niVCs, 0)
	var core, q, lock int
	for i, ni := range n.nis {
		ck.nis[i] = ni.niState
		for c := range ni.queues {
			k := copy(ck.queued[q:], ni.queues[c][ni.heads[c]:])
			ck.cores[core] = k
			core++
			q += k
		}
		copy(ck.locks[lock:], ni.injLock)
		lock += copy(ck.rx[lock:], ni.rx)
	}
	w := len(s.actIn.w)
	ck.act = resize(ck.act, 3*w, 0)
	copy(ck.act, s.actIn.w)
	copy(ck.act[w:], s.actOut.w)
	copy(ck.act[2*w:], s.actNI.w)
	ck.flits = [3]int{s.flitsIn, s.flitsParked, s.flitsNI}
	ck.telOn = n.telemetry != nil
	if ck.telOn {
		ck.tel.copyFrom(n.telemetry)
	}
}

// Restore puts the state saved in ck back on the network, which must have
// the saved network's configuration, wiring and routing, and a telemetry
// tap exactly when the saved one had one. Buffers restart at the front of
// their backing arrays, a layout no observer can tell apart from the saved
// one. It allocates nothing.
func (n *Network) Restore(ck *Checkpoint) {
	if len(ck.routers) != len(n.routers) || ck.telOn != (n.telemetry != nil) {
		panic("noc: Restore of a checkpoint saved from another network shape")
	}
	n.cycle, n.nextPacketID = ck.cycle, ck.nextPacketID
	n.Counters = ck.counters
	var iv, buf, port, vc, ent int
	for i, r := range n.routers {
		r.routerState = ck.routers[i]
		for j := range r.ivcs {
			ivc, st := &r.ivcs[j], &ck.ivcs[iv]
			iv++
			ivc.buf = refill(ivc.buf, ck.bufs[buf:buf+st.flits])
			ivc.head = 0
			buf += st.flits
			ivc.wormhole = st.wormhole
		}
		for p := 0; p < r.numPorts; p++ {
			op, ps := r.outputs[p], &ck.ports[port]
			port++
			op.entries = refill(op.entries, ck.entries[ent:ent+ps.entries])
			ent += ps.entries
			op.portState = ps.portState
			for v := range op.vcOwner {
				op.vcOwner[v], op.credits[v] = ck.vcs[vc].owner, ck.vcs[vc].credits
				vc++
			}
		}
	}
	var core, q, lock int
	for i, ni := range n.nis {
		ni.niState = ck.nis[i]
		for c := range ni.queues {
			k := ck.cores[core]
			core++
			ni.queues[c] = refill(ni.queues[c], ck.queued[q:q+k])
			ni.heads[c] = 0
			q += k
		}
		copy(ni.injLock, ck.locks[lock:])
		copy(ni.rx, ck.rx[lock:])
		lock += len(ni.injLock)
	}
	s, w := n.sched, len(n.sched.actIn.w)
	copy(s.actIn.w, ck.act[:w])
	copy(s.actOut.w, ck.act[w:2*w])
	copy(s.actNI.w, ck.act[2*w:])
	s.flitsIn, s.flitsParked, s.flitsNI = ck.flits[0], ck.flits[1], ck.flits[2]
	if ck.telOn {
		n.telemetry.copyFrom(&ck.tel)
	}
}
