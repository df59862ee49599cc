// Package migrate implements the OS-level response the paper proposes as a
// complement to L-Ob (Section IV-B): once the threat detector has localised
// compromised links, "more aggressive approaches [can] be taken, such as
// rerouting packets or invoking the OS to migrate processes from one
// network region to another". Migrating the victim application's processes
// away from the trojan's hunting ground changes the header fields its
// comparator was programmed for — the attack goes blind.
//
// The model works at router granularity: a logical-to-physical placement
// map starts as the identity; an evacuation swaps the victim router's
// processes with a donor region far from every infected link, pauses the
// moved cores for a state-transfer window, and injects the bulk state-copy
// traffic the move itself costs.
package migrate

import (
	"tasp/internal/flit"
	"tasp/internal/noc"
)

// Migrator tracks the logical-to-physical placement of router process
// groups (with concentration c, a router's group is its c cores).
type Migrator struct {
	cfg    noc.Config
	physOf []int // logical router -> physical router
	logOf  []int // physical router -> logical router

	// PauseCycles is the injection blackout of both swapped regions while
	// architectural state moves (register files, dirty cache lines).
	PauseCycles uint64

	pausedUntil map[int]uint64 // physical router -> cycle injection resumes
	// Moves counts evacuations performed.
	Moves int
}

// New returns the identity placement.
func New(cfg noc.Config) *Migrator {
	m := &Migrator{
		cfg:         cfg,
		physOf:      make([]int, cfg.Routers()),
		logOf:       make([]int, cfg.Routers()),
		PauseCycles: 200,
		pausedUntil: map[int]uint64{},
	}
	for i := range m.physOf {
		m.physOf[i] = i
		m.logOf[i] = i
	}
	return m
}

// PhysRouter returns the physical router hosting a logical router's
// processes.
func (m *Migrator) PhysRouter(logical int) int { return m.physOf[logical] }

// LogRouter returns the logical router whose processes a physical router
// hosts.
func (m *Migrator) LogRouter(physical int) int { return m.logOf[physical] }

// PhysCore maps a logical core to its physical core.
func (m *Migrator) PhysCore(logicalCore int) int {
	c := m.cfg.Concentration
	return m.physOf[logicalCore/c]*c + logicalCore%c
}

// Paused reports whether a physical router's injection is blacked out.
func (m *Migrator) Paused(cycle uint64, physical int) bool {
	return cycle < m.pausedUntil[physical]
}

// Evacuate swaps the logical victim's processes with those hosted at the
// donor physical router, starting a state-transfer pause at both ends.
func (m *Migrator) Evacuate(victimLogical, donorPhysical int, cycle uint64) {
	from := m.physOf[victimLogical]
	if from == donorPhysical {
		return
	}
	displaced := m.logOf[donorPhysical]
	m.physOf[victimLogical] = donorPhysical
	m.physOf[displaced] = from
	m.logOf[donorPhysical] = victimLogical
	m.logOf[from] = displaced
	m.pausedUntil[from] = cycle + m.PauseCycles
	m.pausedUntil[donorPhysical] = cycle + m.PauseCycles
	m.Moves++
}

// Rewrite retargets a packet under the current placement: the destination
// router (and implicitly the source, which is set by the physical core the
// packet is injected from) moves with the processes.
func (m *Migrator) Rewrite(p *flit.Packet) {
	p.Hdr.DstR = uint8(m.physOf[p.Hdr.DstR])
}

// PlanTarget picks the donor router for an evacuation: the router
// maximising the minimum hop distance to any endpoint of an infected link
// (breaking ties toward higher router ids for determinism). The links are
// indexed by id. The victim's current host is never chosen.
func PlanTarget(cfg noc.Config, links []noc.LinkInfo, infected []int, victimPhys int) int {
	t := cfg.Topology()
	best, bestDist := victimPhys, -1
	for r := 0; r < t.Routers(); r++ {
		near := 1 << 30
		for _, id := range infected {
			near = min(near, t.HopDist(links[id].From, r), t.HopDist(links[id].To, r))
		}
		if r != victimPhys && near >= bestDist {
			best, bestDist = r, near
		}
	}
	return best
}

// StateTransfer builds the bulk copy traffic of one evacuation: n five-flit
// packets from the old physical region to the new one (cache and register
// state following the processes).
func (m *Migrator) StateTransfer(fromPhys, toPhys, n int) []*flit.Packet {
	out := make([]*flit.Packet, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &flit.Packet{
			Hdr: flit.Header{
				VC:   uint8(i % m.cfg.VCs),
				DstR: uint8(toPhys),
				DstC: uint8(i % m.cfg.Concentration),
				Mem:  uint32(toPhys)<<24 | uint32(i),
				Seq:  uint8(i),
			},
			Body: make([]uint64, 4),
		})
	}
	return out
}
