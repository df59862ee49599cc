// Package qos implements the TDM-based non-interference baseline the paper
// evaluates in Figure 12(a), in the spirit of SurfNoC [14]: the NoC is
// partitioned into two domains that share the physical links by strict time
// division. Domain 1 owns even cycles, domain 2 odd cycles; each domain also
// owns half the virtual channels, so buffer resources never mix. A DoS
// attack mounted inside one domain is therefore contained — its
// back-pressure cannot spill into the other domain's cycles or buffers —
// but, as the paper observes, the attacked domain itself still deadlocks.
package qos

import "tasp/internal/noc"

// NumDomains is fixed at two, matching the paper's D1/D2 evaluation.
const NumDomains = 2

// TDM is a two-domain time-division multiplexing policy over a mesh.
type TDM struct {
	cfg noc.Config
}

// NewTDM builds the policy for a network configuration. The configuration
// must have an even number of VCs so they split cleanly across domains.
func NewTDM(cfg noc.Config) *TDM {
	return &TDM{cfg: cfg}
}

// DomainOfCore statically assigns cores to domains: even-indexed cores run
// domain-1 workloads, odd-indexed cores domain-2 (interleaving keeps both
// domains present at every router, the hardest containment case).
func (t *TDM) DomainOfCore(core int) int { return core % NumDomains }

// DomainOfVC maps a virtual channel to its owning domain: the lower half of
// the VCs belongs to domain 0.
func (t *TDM) DomainOfVC(vc int) int {
	if vc < t.cfg.VCs/2 {
		return 0
	}
	return 1
}

// VCsOf returns the virtual channels a domain may use.
func (t *TDM) VCsOf(domain int) []uint8 {
	var out []uint8
	for v := 0; v < t.cfg.VCs; v++ {
		if t.DomainOfVC(v) == domain {
			out = append(out, uint8(v))
		}
	}
	return out
}

// AssignVC rewrites a packet's VC into its source core's domain partition,
// deterministically spreading packets across the domain's VCs by sequence
// number.
func (t *TDM) AssignVC(core int, seq uint8) uint8 {
	vcs := t.VCsOf(t.DomainOfCore(core))
	return vcs[int(seq)%len(vcs)]
}

// Schedule is the link-admission gate to install with
// noc.Network.SetLinkSchedule: domain d may traverse links only on cycles
// with parity d.
func (t *TDM) Schedule(cycle uint64, vc uint8) bool {
	return int(cycle)%NumDomains == t.DomainOfVC(int(vc))
}

// OccupancyOf returns the utilisation snapshot restricted to one domain
// (Figure 12(a)'s per-domain series).
func (t *TDM) OccupancyOf(n *noc.Network, domain int) noc.Occupancy {
	return n.OccupancyWhere(
		func(vc int) bool { return t.DomainOfVC(vc) == domain },
		func(core int) bool { return t.DomainOfCore(core) == domain },
	)
}
