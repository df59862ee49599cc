package noc

import "tasp/internal/flit"

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

	rx     map[uint64]*rxState // packet id -> reassembly state
	rxFree []*rxState          // recycled reassembly states

	// sched is the network's event-driven scheduler; gain/lose (sched.go)
	// mirror total into its injection active set. Set by Network.New.
	sched *scheduler

	// Delivered is invoked for each fully reassembled packet. May be nil.
	Delivered func(d Delivery)
}

// rxState tracks one packet's reassembly.
type rxState struct {
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
		rx:      map[uint64]*rxState{},
	}
	for c := range ni.queues {
		ni.queues[c] = make([]flit.Flit, 0, cfg.InjQueueCap)
	}
	for v := range ni.injLock {
		ni.injLock[v] = -1
	}
	return ni
}

// reset empties the injection queues, releases VC locks, recycles in-flight
// reassembly states and removes the delivery callback, restoring the
// post-newNI state without allocating (beyond the bounded rxFree growth the
// recycle list already performs). Network.Reset only.
func (ni *NI) reset() {
	for c := range ni.queues {
		ni.queues[c] = ni.queues[c][:0]
		ni.heads[c] = 0
	}
	for v := range ni.injLock {
		ni.injLock[v] = -1
	}
	ni.rrCore = 0
	for id, st := range ni.rx { //nocvet:orderfree drains the map; recycled states are fully overwritten before reuse, so recycle order is unobservable
		delete(ni.rx, id)
		//nocvet:allowalloc bounded: rxFree holds at most the concurrent-reassembly high-water mark of recycled states
		ni.rxFree = append(ni.rxFree, st)
	}
	ni.Delivered = nil
	ni.resetActivity()
}

// qlen returns the number of flits waiting in one core's injection queue.
func (ni *NI) qlen(core int) int { return len(ni.queues[core]) - ni.heads[core] }

// enqueue appends a packet's flits to the core-local injection queue if the
// whole packet fits; otherwise it reports failure and queues nothing (the
// source must retry — this is how full cores throttle, and what the paper's
// "cores full" bins measure).
func (ni *NI) enqueue(core int, fs []flit.Flit) bool {
	if ni.qlen(core)+len(fs) > ni.cfg.InjQueueCap {
		return false
	}
	q, h := ni.queues[core], ni.heads[core]
	if h > 0 && len(q)+len(fs) > cap(q) {
		n := copy(q, q[h:])
		q = q[:n]
		ni.heads[core] = 0
	}
	//nocvet:allowalloc bounded: qlen admission caps occupancy at InjQueueCap and the queue is pre-sized to it
	ni.queues[core] = append(q, fs...)
	ni.gain(len(fs))
	return true
}

// coreFull reports whether a core's injection queue cannot accept a packet
// of the given flit count.
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
func (ni *NI) inject(r *Router, cycle uint64) bool {
	conc := ni.cfg.Concentration
	for k := 0; k < conc; k++ {
		core := ni.rrCore + k // rrCore <= conc, so one wrap suffices
		if core >= conc {
			core -= conc
		}
		if ni.qlen(core) == 0 {
			continue
		}
		f := &ni.queues[core][ni.heads[core]]
		head, tail := f.IsHead(), f.IsTail()
		var v int
		if head {
			v = int(ni.layout.VC(f.Payload))
			if ni.injLock[v] != -1 && ni.injLock[v] != core {
				continue // VC locked by another core's in-flight packet
			}
		} else {
			// Body/tail flits ride the VC their head locked.
			v = ni.lockedVC(core)
			if v < 0 {
				continue // should not happen; skip defensively
			}
		}
		if r.input(PortLocal, v).size() >= ni.cfg.BufDepth {
			continue
		}
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
		return true
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

// receive accepts an ejected flit and completes reassembly on the tail.
// Retired rxStates are recycled through a free list so steady-state
// delivery does not allocate.
func (ni *NI) receive(f flit.Flit, cycle uint64) (done bool, latency uint64) {
	st := ni.rx[f.PacketID]
	if st == nil {
		if k := len(ni.rxFree); k > 0 {
			st = ni.rxFree[k-1]
			ni.rxFree = ni.rxFree[:k-1]
			*st = rxState{}
		} else {
			st = &rxState{} //nocvet:allowalloc cold: only before the rxFree recycle list has warmed up to the live-packet high-water mark
		}
		ni.rx[f.PacketID] = st
	}
	st.flits++
	if f.IsHead() {
		st.hdr = f.Header(&ni.layout)
	}
	if !f.IsTail() {
		return false, 0
	}
	delete(ni.rx, f.PacketID)
	//nocvet:allowalloc bounded: rxFree holds at most the concurrent-reassembly high-water mark of recycled states
	ni.rxFree = append(ni.rxFree, st)
	lat := cycle - f.InjectAt
	if ni.Delivered != nil {
		ni.Delivered(Delivery{ID: f.PacketID, Hdr: st.hdr, Flits: st.flits, Latency: lat})
	}
	return true, lat
}
