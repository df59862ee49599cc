package noc

// DefaultTelemetryDepth is the blocked-port history ring's default depth in
// samples.
const DefaultTelemetryDepth = 64

// LinkTelemetry is the per-router blocked-port telemetry tap: each router
// exposes, per output port (= per directed link), whether the port is
// blocked — the same rule (portBlocked) Occupancy's BlockedRouters uses,
// but kept per link and over time. The tap stores a fixed-depth ring of
// per-sample blocked bitsets plus each link's longest blocked streak.
// Everything is preallocated at Enable time; Sample performs no allocations, per the simulator's
// steady-state allocation budget.
//
// The tap is observation-only: it reads router state and never perturbs the
// simulation, so enabling it cannot change any experiment's outcome.
type LinkTelemetry struct {
	net *Network

	// The history ring: depth rows, words uint64 words per row, one bit per
	// link. Row i of the ring is ring[i*words : (i+1)*words].
	depth int
	words int
	ring  []uint64
	head  int // next row to overwrite
	rows  int // rows filled so far (saturates at depth)

	// streaks[id] is link id's blocked-streak record.
	streaks []streak
}

// streak is one link's blocked-streak record, the basis of Onset: warm-up
// congestion can block a port for a sample or two long before any attack,
// so "first ever blocked" is a poor outage-onset estimate. The start of the
// longest contiguous blocked streak is robust to such transients.
type streak struct {
	curStart uint64 // start cycle of the running streak
	curLen   uint64 // samples in the running streak (0 = unblocked now)
	bestAt   uint64 // start cycle of the longest streak seen
	bestLen  uint64 // samples in the longest streak seen (0 = never blocked)
}

// EnableTelemetry attaches a blocked-port telemetry tap with the given ring
// depth (<= 0 means DefaultTelemetryDepth) and returns it. When a tap of the
// same shape (depth and link count) is already attached it is cleared and
// reused in place — the memoized-ring path campaign arenas rely on to keep
// repeated same-topology points allocation-free; otherwise a fresh tap
// replaces the old one.
func (n *Network) EnableTelemetry(depth int) *LinkTelemetry {
	if depth <= 0 {
		depth = DefaultTelemetryDepth
	}
	words := (len(n.links) + 63) / 64
	if t := n.telemetry; t != nil && t.depth == depth && t.words == words && len(t.streaks) == len(n.links) {
		t.Reset()
		return t
	}
	t := &LinkTelemetry{
		net:     n,
		depth:   depth,
		words:   words,
		ring:    make([]uint64, depth*words),
		streaks: make([]streak, len(n.links)),
	}
	n.telemetry = t
	return t
}

// Reset clears every recorded sample — the ring and the streak trackers —
// without allocating, returning the tap
// to its post-Enable state. Network.Reset calls it so an arena-reused
// network starts each scenario point with virgin telemetry.
func (t *LinkTelemetry) Reset() {
	clear(t.ring)
	t.head, t.rows = 0, 0
	clear(t.streaks)
}

// copyFrom makes t's recorded history a copy of src's, reusing t's arrays
// (Network.Save and Restore). The network link is t's own.
func (t *LinkTelemetry) copyFrom(src *LinkTelemetry) {
	t.depth, t.words = src.depth, src.words
	t.ring = refill(t.ring, src.ring)
	t.head, t.rows = src.head, src.rows
	t.streaks = refill(t.streaks, src.streaks)
}

// Sample records one blocked-port snapshot at the network's current cycle.
// It allocates nothing.
func (t *LinkTelemetry) Sample() {
	n := t.net
	row := t.ring[t.head*t.words : (t.head+1)*t.words]
	for i := range row {
		row[i] = 0
	}
	cycle := n.cycle
	for id := range n.links {
		l := n.links[id]
		r := n.routers[l.From]
		s := &t.streaks[id]
		if n.portBlocked(r, r.outputs[l.FromPort]) {
			row[id/64] |= 1 << (id % 64)
			if s.curLen == 0 {
				s.curStart = cycle
			}
			s.curLen++
			if s.curLen > s.bestLen {
				s.bestLen = s.curLen
				s.bestAt = s.curStart
			}
		} else {
			s.curLen = 0
		}
	}
	t.head = (t.head + 1) % t.depth
	if t.rows < t.depth {
		t.rows++
	}
}

// Onset returns the start cycle of the link's longest contiguous blocked
// streak and whether the link ever blocked. Unlike the first blocked
// sample, it is robust to isolated pre-outage congestion blips: a
// one-sample warm-up stall cannot masquerade as the onset of a sustained
// saturation outage. Ties between equal-length streaks keep the earlier
// one.
func (t *LinkTelemetry) Onset(link int) (uint64, bool) {
	s := &t.streaks[link]
	return s.bestAt, s.bestLen != 0
}

// RecentBlockedFrac returns the fraction of the ring's retained samples (the
// trailing window of up to depth snapshots) in which the link was blocked —
// the "is it persistently blocked *now*" signal.
func (t *LinkTelemetry) RecentBlockedFrac(link int) float64 {
	if t.rows == 0 {
		return 0
	}
	w, bit := link/64, uint(link%64)
	hits := 0
	for r := 0; r < t.rows; r++ {
		if t.ring[r*t.words+w]&(1<<bit) != 0 {
			hits++
		}
	}
	return float64(hits) / float64(t.rows)
}
