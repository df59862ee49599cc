package core

import (
	"fmt"
	"testing"

	"tasp/internal/noc"
	"tasp/internal/tasp"
)

// TestRecoveryKeepsInvariants replays the secure-ack grid points (mesh,
// torus and ring under the drop, misroute and collude families, with locate
// and conviction-driven recovery on) at which recovery used to crash with a
// nil buffer front in the VC-allocation stage, and audits every network
// invariant after every cycle. The cause was the wormhole purge of
// reroute.ApplySafe corrupting input FIFOs that held none of the purged
// packet's flits (see noc.TestPurgeLeavesOtherFIFOsIntact): a lost head
// left its VC requesting VA with a body flit, then nothing, at the front.
func TestRecoveryKeepsInvariants(t *testing.T) {
	for _, tc := range []struct {
		topo  string
		kind  tasp.Kind
		links int
		seed  uint64
	}{
		{"mesh", tasp.KindDrop, 2, 118},
		{"torus", tasp.KindDrop, 2, 116},
		{"torus", tasp.KindMisroute, 2, 128},
		{"torus", tasp.KindCollude, 3, 131},
		{"ring", tasp.KindDrop, 2, 37},
	} {
		t.Run(fmt.Sprintf("%s/%s/seed%d", tc.topo, tc.kind, tc.seed), func(t *testing.T) {
			cfg := DefaultExperiment()
			cfg.Noc.Topo = tc.topo
			cfg.Seed = tc.seed
			cfg.Attack.Kind = tc.kind
			cfg.Attack.NumLinks = tc.links
			cfg.SecureAck = true
			cfg.Locate = true
			cfg.RecoverOnConvict = true
			r := NewRunner()
			r.audit = (*noc.Network).CheckInvariants
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.RecoveredAt == 0 {
				t.Fatal("no conviction-driven recovery: the point no longer exercises the purge")
			}
		})
	}
}
