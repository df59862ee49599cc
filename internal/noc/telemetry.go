package noc

// DefaultTelemetryDepth is the blocked-port history ring's default depth in
// samples.
const DefaultTelemetryDepth = 64

// LinkTelemetry is the per-router blocked-port telemetry tap: each router
// exposes, per output port (= per directed link), whether the port is
// blocked — the same rule (portBlocked) Occupancy's BlockedRouters uses,
// but kept per link and over time. The tap stores a fixed-depth ring of
// per-sample blocked bitsets plus two cumulative aggregates (first-blocked
// cycle and blocked-sample count per link). Everything is preallocated at
// Enable time; Sample performs no allocations, per the simulator's
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
	// cycleOf[i] is the sample cycle of ring row i (0 = row unused).
	cycleOf []uint64
	head    int // next row to overwrite
	rows    int // rows filled so far (saturates at depth)

	samples      uint64
	firstBlocked []uint64 // link id -> cycle first sampled blocked (0 = never)
	blockedCount []uint64 // link id -> samples the link was blocked in

	// Blocked-streak tracking, the basis of Onset: warm-up congestion can
	// block a port for a sample or two long before any attack, so "first
	// ever blocked" is a poor outage-onset estimate. The start of the
	// longest contiguous blocked streak is robust to such transients.
	curStart []uint64 // start cycle of the running streak
	curLen   []uint64 // samples in the running streak (0 = unblocked now)
	bestAt   []uint64 // start cycle of the longest streak seen
	bestLen  []uint64 // samples in the longest streak seen (0 = never blocked)
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
	if t := n.telemetry; t != nil && t.depth == depth && t.words == words && len(t.firstBlocked) == len(n.links) {
		t.Reset()
		return t
	}
	t := &LinkTelemetry{
		net:          n,
		depth:        depth,
		words:        words,
		ring:         make([]uint64, depth*words),
		cycleOf:      make([]uint64, depth),
		firstBlocked: make([]uint64, len(n.links)),
		blockedCount: make([]uint64, len(n.links)),
		curStart:     make([]uint64, len(n.links)),
		curLen:       make([]uint64, len(n.links)),
		bestAt:       make([]uint64, len(n.links)),
		bestLen:      make([]uint64, len(n.links)),
	}
	n.telemetry = t
	return t
}

// Telemetry returns the attached tap, or nil when telemetry is disabled.
func (n *Network) Telemetry() *LinkTelemetry { return n.telemetry }

// Reset clears every recorded sample — the ring, the cumulative per-link
// aggregates and the streak trackers — without allocating, returning the tap
// to its post-Enable state. Network.Reset calls it so an arena-reused
// network starts each scenario point with virgin telemetry.
func (t *LinkTelemetry) Reset() {
	for i := range t.ring {
		t.ring[i] = 0
	}
	for i := range t.cycleOf {
		t.cycleOf[i] = 0
	}
	t.head, t.rows, t.samples = 0, 0, 0
	for i := range t.firstBlocked {
		t.firstBlocked[i] = 0
		t.blockedCount[i] = 0
		t.curStart[i] = 0
		t.curLen[i] = 0
		t.bestAt[i] = 0
		t.bestLen[i] = 0
	}
}

// Sample records one blocked-port snapshot at the network's current cycle.
// It allocates nothing.
func (t *LinkTelemetry) Sample() {
	n := t.net
	n.repairIfAsleep() // make lastProgress exact inside a sleep stretch
	row := t.ring[t.head*t.words : (t.head+1)*t.words]
	for i := range row {
		row[i] = 0
	}
	cycle := n.cycle
	for id := range n.links {
		l := n.links[id]
		r := n.routers[l.From]
		if n.portBlocked(r, r.outputs[l.FromPort]) {
			row[id/64] |= 1 << (id % 64)
			t.blockedCount[id]++
			if t.firstBlocked[id] == 0 {
				t.firstBlocked[id] = cycle
			}
			if t.curLen[id] == 0 {
				t.curStart[id] = cycle
			}
			t.curLen[id]++
			if t.curLen[id] > t.bestLen[id] {
				t.bestLen[id] = t.curLen[id]
				t.bestAt[id] = t.curStart[id]
			}
		} else {
			t.curLen[id] = 0
		}
	}
	t.cycleOf[t.head] = cycle
	t.head = (t.head + 1) % t.depth
	if t.rows < t.depth {
		t.rows++
	}
	t.samples++
}

// Samples returns how many snapshots have been taken.
func (t *LinkTelemetry) Samples() uint64 { return t.samples }

// Links returns the number of links the tap observes.
func (t *LinkTelemetry) Links() int { return len(t.firstBlocked) }

// FirstBlocked returns the cycle the link was first sampled blocked and
// whether it ever was.
func (t *LinkTelemetry) FirstBlocked(link int) (uint64, bool) {
	return t.firstBlocked[link], t.firstBlocked[link] != 0
}

// Onset returns the start cycle of the link's longest contiguous blocked
// streak and whether the link ever blocked. Unlike FirstBlocked, it is
// robust to isolated pre-outage congestion blips: a one-sample warm-up
// stall cannot masquerade as the onset of a sustained saturation outage.
// Ties between equal-length streaks keep the earlier one.
func (t *LinkTelemetry) Onset(link int) (uint64, bool) {
	return t.bestAt[link], t.bestLen[link] != 0
}

// OnsetStreak returns the length, in samples, of the link's longest
// contiguous blocked streak (0 = never blocked).
func (t *LinkTelemetry) OnsetStreak(link int) uint64 { return t.bestLen[link] }

// BlockedFrac returns the fraction of all samples in which the link was
// blocked (0 when nothing has been sampled yet).
func (t *LinkTelemetry) BlockedFrac(link int) float64 {
	if t.samples == 0 {
		return 0
	}
	return float64(t.blockedCount[link]) / float64(t.samples)
}

// RecentBlockedFrac returns the fraction of the ring's retained samples (the
// trailing window of up to depth snapshots) in which the link was blocked —
// the "is it persistently blocked *now*" signal, as opposed to the all-time
// BlockedFrac.
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

// BlockedAt reports whether the link was blocked in the i-th most recent
// retained sample (i = 0 is the newest) and the cycle of that sample; ok is
// false when the ring does not retain that many samples.
func (t *LinkTelemetry) BlockedAt(link, i int) (blocked bool, cycle uint64, ok bool) {
	if i < 0 || i >= t.rows {
		return false, 0, false
	}
	r := ((t.head-1-i)%t.depth + t.depth) % t.depth
	w, bit := link/64, uint(link%64)
	return t.ring[r*t.words+w]&(1<<bit) != 0, t.cycleOf[r], true
}
