package noc

import "fmt"

// DebugDump renders the full buffer/credit/ownership state of every router
// whose buffers are non-empty — the tool for diagnosing wedged networks.
func (n *Network) DebugDump() string {
	var sb []byte
	app := func(format string, args ...interface{}) { sb = append(sb, []byte(fmt.Sprintf(format, args...))...) }
	for _, r := range n.routers {
		busy := false
		for p := 0; p < r.numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				if !r.input(p, v).empty() {
					busy = true
				}
			}
			if len(r.outputs[p].entries) > 0 {
				busy = true
			}
		}
		if !busy {
			continue
		}
		app("router %d:\n", r.id)
		for p := 0; p < r.numPorts; p++ {
			for v := 0; v < r.vcs; v++ {
				ivc := r.input(p, v)
				f := ivc.front()
				if f == nil {
					continue
				}
				app("  in %s vc%d: %d flits routed=%v route=%d alloc=%v front={pkt %d idx %d %v ready %d}\n",
					n.topo.PortName(r.id, p), v, ivc.size(), ivc.routed, ivc.route, ivc.allocated,
					f.f.PacketID, f.f.Index, f.f.Kind, f.readyAt)
			}
			op := r.outputs[p]
			if len(op.entries) > 0 || anyOwner(op.vcOwner) {
				app("  out %s: owner=%v credits=%v entries=", n.topo.PortName(r.id, p), op.vcOwner, op.credits)
				for _, e := range op.entries {
					app("{pkt %d idx %d vc%d att%d next%d} ", e.f.PacketID, e.f.Index, e.vc, e.attempts, e.nextTry)
				}
				app("\n")
			}
		}
	}
	return string(sb)
}

func anyOwner(o []uint64) bool {
	for _, v := range o {
		if v != 0 {
			return true
		}
	}
	return false
}

// DebugRetransVCs exposes the VCs of the entries currently parked in a
// link's retransmission buffer.
func (n *Network) DebugRetransVCs(linkID int) []uint8 {
	op := n.LinkOutput(linkID)
	var out []uint8
	for _, e := range op.entries {
		out = append(out, e.vc)
	}
	return out
}
