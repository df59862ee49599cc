// Package noc is a cycle-accurate simulator of the paper's evaluation
// platform: a concentrated 4x4 mesh (16 routers x 4 cores = 64 cores) of
// virtual-channel wormhole routers with a 5-stage pipeline (BW/RC, VA, SA,
// ST, LT), credit-based flow control, XY dimension-order routing with
// round-robin arbitration, SECDED-protected links and switch-to-switch
// retransmission with the retransmission buffers placed after the crossbar
// (the paper's stated worst case).
//
// The substrate is pluggable through the Topology interface: besides the
// paper's mesh, a torus (wraparound links, dateline VC classes for deadlock
// freedom) and a bidirectional ring (three-port routers, shortest-direction
// routing) are provided. The flit-header field widths scale with the
// configuration (Config.Layout), so substrates are bounded only by what a
// 64-bit header can address — up to 256 routers — not by a fixed id width.
//
// The simulator is deliberately mechanical: it owns buffering, arbitration,
// credits and the retransmission protocol, and delegates everything that
// happens on the wire — ECC encode/decode, obfuscation, fault and trojan
// injection, threat detection — to a pluggable Wire per link. Package core
// assembles the secure wires; this package knows nothing about the attack
// or the defence.
package noc

import (
	"fmt"

	"tasp/internal/flit"
)

// MaxVCs bounds the per-port virtual-channel count the router pipeline
// supports (fixed-size per-VC scratch state in the link-traversal phase).
const MaxVCs = 8

// Port indices within a router.
const (
	PortLocal = 0 // to/from the 4-core concentrator
	PortEast  = 1 // +x
	PortWest  = 2 // -x
	PortNorth = 3 // +y
	PortSouth = 4 // -y
	NumPorts  = 5
)

// PortName returns a short name for a port index.
func PortName(p int) string {
	switch p {
	case PortLocal:
		return "local"
	case PortEast:
		return "east"
	case PortWest:
		return "west"
	case PortNorth:
		return "north"
	case PortSouth:
		return "south"
	default:
		return fmt.Sprintf("port(%d)", p)
	}
}

// Config describes the simulated NoC. The zero value is not valid; use
// DefaultConfig (the paper's platform) and override fields as needed.
type Config struct {
	// Topo selects the network substrate: "mesh" (default; "" means mesh),
	// "torus" or "ring". Width*Height is the router count on every
	// topology; the ring ignores the grid shape and arranges the routers
	// in a cycle.
	Topo string

	Width         int // mesh columns
	Height        int // mesh rows
	Concentration int // cores per router

	VCs          int // virtual channels per port
	BufDepth     int // flit slots per input VC
	RetransDepth int // flit slots per output retransmission buffer
	InjQueueCap  int // flit capacity of each core's injection queue

	// RetransPenalty is the number of cycles between a NACK and the entry
	// becoming sendable again (the paper's 1-3 cycle retransmission cost).
	RetransPenalty int

	// MaxAttempts caps per-flit transmission attempts before the entry is
	// abandoned and counted as failed (0 = never abandon; the paper's NoCs
	// rarely support dropping, which is what lets back-pressure build).
	MaxAttempts int

	// PartitionRetrans splits each retransmission buffer between the lower
	// and upper half of the VCs (TDM QoS non-interference: one domain's
	// wedged flits cannot consume the other domain's slots).
	PartitionRetrans bool

	// RetransPerVC switches to the paper's second retransmission scheme
	// (Figure 5): instead of one shared buffer after the crossbar (the
	// stated worst case, and the default), each VC owns RetransDepth slots
	// of retransmission storage, so a wedged VC cannot exhaust another
	// VC's slots. Takes precedence over PartitionRetrans.
	RetransPerVC bool
}

// DefaultConfig returns the paper's evaluation platform: 4x4 mesh,
// concentration 4 (64 cores), 4 VCs/port, 4x64-bit buffers per VC, 4-slot
// retransmission buffers, and a 2-cycle NACK turnaround.
func DefaultConfig() Config {
	return Config{
		Width:          4,
		Height:         4,
		Concentration:  4,
		VCs:            4,
		BufDepth:       4,
		RetransDepth:   4,
		InjQueueCap:    32,
		RetransPenalty: 2,
	}
}

// Routers returns the router count.
func (c Config) Routers() int { return c.Width * c.Height }

// Cores returns the core count.
func (c Config) Cores() int { return c.Routers() * c.Concentration }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Topo {
	case "", "mesh", "torus":
		if c.Width < 2 || c.Height < 2 {
			return fmt.Errorf("noc: %s must be at least 2x2, got %dx%d", c.TopoName(), c.Width, c.Height)
		}
	case "ring":
		if c.Width*c.Height < 3 {
			return fmt.Errorf("noc: ring needs at least 3 routers, got %d", c.Width*c.Height)
		}
	default:
		return fmt.Errorf("noc: unknown topology %q (have %v)", c.Topo, Topologies())
	}
	if (c.Topo == "torus" || c.Topo == "ring") && c.VCs < 2 {
		// The dateline scheme needs two VC classes to cut each wraparound
		// ring's channel-dependency cycle.
		return fmt.Errorf("noc: %s needs at least 2 VCs for dateline deadlock freedom, got %d", c.Topo, c.VCs)
	}
	switch {
	case c.Concentration < 1:
		return fmt.Errorf("noc: concentration must be at least 1, got %d", c.Concentration)
	case c.VCs < 1 || c.VCs > MaxVCs:
		return fmt.Errorf("noc: VCs must be 1..%d, got %d", MaxVCs, c.VCs)
	case c.BufDepth < 1:
		return fmt.Errorf("noc: BufDepth must be positive")
	case c.RetransDepth < 1:
		return fmt.Errorf("noc: RetransDepth must be positive")
	case c.InjQueueCap < 1:
		return fmt.Errorf("noc: InjQueueCap must be positive")
	case c.RetransPenalty < 1:
		return fmt.Errorf("noc: RetransPenalty must be at least 1")
	}
	// The substrate is bounded only by what a flit header can address: the
	// id fields widen with the configuration (router ids = ceil(log2(R)))
	// until the packed layout no longer fits the 64-bit payload.
	if _, err := flit.LayoutFor(c.Routers(), c.Concentration, c.VCs); err != nil {
		return fmt.Errorf("noc: %w", err)
	}
	return nil
}

// Layout derives the flit-header layout this configuration needs: router-id
// bits = ceil(log2(routers)), core bits = ceil(log2(concentration)), VC bits
// = ceil(log2(VCs)). The paper's 4x4/concentration-4/4-VC platform derives
// exactly flit.Default. It panics on a configuration Validate would reject;
// validate first.
func (c Config) Layout() flit.Layout {
	l, err := flit.LayoutFor(c.Routers(), c.Concentration, c.VCs)
	if err != nil {
		panic(err)
	}
	return l
}

// TopoName returns the topology name with the empty default resolved.
func (c Config) TopoName() string {
	if c.Topo == "" {
		return "mesh"
	}
	return c.Topo
}

// Topology constructs the configured topology object. It panics on a
// configuration Validate would reject; validate first.
func (c Config) Topology() Topology {
	t, err := NewTopology(c.Topo, c.Width, c.Height)
	if err != nil {
		panic(err)
	}
	return t
}

// XY returns the mesh coordinates of a router id.
func (c Config) XY(r int) (x, y int) { return r % c.Width, r / c.Width }

// RouterAt returns the router id at mesh coordinates (x, y).
func (c Config) RouterAt(x, y int) int { return y*c.Width + x }

// CoreRouter maps a core id to its router. The pointer receiver keeps the
// per-packet injection path from copying the whole configuration.
func (c *Config) CoreRouter(core int) int { return core / c.Concentration }

// RouteFunc selects the output port a head flit leaves a router on.
// It receives the current router and the destination router.
type RouteFunc func(router, dst int) int

// AdaptiveRouteFunc returns the set of permissible output ports for a hop
// (a turn-model candidate set). The router picks the least congested
// candidate at route-computation time. Candidates must be non-empty and
// deadlock-free by construction (e.g. west-first, north-last).
type AdaptiveRouteFunc func(router, dst int) []int
