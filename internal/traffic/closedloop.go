package traffic

import (
	"tasp/internal/flit"
	"tasp/internal/noc"
)

// ClosedLoop wraps a Generator with request-reply semantics and a finite
// number of outstanding requests per core (MSHR-style). Each generated
// packet becomes a *request*; when a request is delivered, the destination
// core sends a *reply* back; only when the reply arrives does the
// requester's outstanding slot free up. This is how real MPSoC traffic
// behaves — and why the paper says a NoC disruption "has the potential to
// reverberate throughout the entire chip": killing one region's replies
// stalls requesters everywhere.
//
// Requests and replies are distinguished by the header's spare byte
// (ReplyMark), so a TASP trojan can target either direction.
type ClosedLoop struct {
	cfg noc.Config
	gen *Generator

	// Outstanding is the per-core request window (MSHRs).
	Outstanding int
	// ReplyBody is the body flit count of replies (data responses).
	ReplyBody int

	pending []int // per-core in-flight requests

	// Completed counts full request->reply transactions.
	Completed uint64
	// Stalled counts generator offers suppressed by a full window.
	Stalled uint64

	replyQueue []*flit.Packet // replies awaiting injection at their cores
	scratch    flit.Packet    // the generator's request packet, reused
}

// ReplyMark is the spare-byte value identifying reply packets.
const ReplyMark = 0xa1

// NewClosedLoop wraps the model's generator with a request window.
func NewClosedLoop(m *Model, seed uint64, outstanding int) *ClosedLoop {
	if outstanding < 1 {
		outstanding = 4
	}
	return &ClosedLoop{
		cfg:         m.cfg,
		gen:         m.Generator(seed),
		Outstanding: outstanding,
		ReplyBody:   4,
		pending:     make([]int, m.cfg.Cores()),
	}
}

// Tick advances one cycle: drains queued replies, then offers new requests
// from cores with window headroom.
func (cl *ClosedLoop) Tick(inject func(core int, p *flit.Packet) bool) {
	// Replies first: they unblock windows and must not starve behind new
	// requests.
	kept := cl.replyQueue[:0]
	for _, r := range cl.replyQueue {
		src := int(r.Hdr.SrcR)*cl.cfg.Concentration + int(r.Hdr.SrcC)
		if !inject(src, r) {
			kept = append(kept, r)
		}
	}
	cl.replyQueue = kept

	cl.gen.TickInto(&cl.scratch, func(core int, p *flit.Packet) bool {
		if cl.pending[core] >= cl.Outstanding {
			cl.Stalled++
			return false
		}
		p.Hdr.Spare = 0 // request
		if !inject(core, p) {
			return false
		}
		cl.pending[core]++
		return true
	})
}

// OnDeliver must be wired to the network's delivery callback. For a
// delivered request it queues the reply; for a delivered reply it closes
// the transaction.
func (cl *ClosedLoop) OnDeliver(d noc.Delivery) {
	h := d.Hdr
	if h.Spare == ReplyMark {
		requester := int(h.DstR)*cl.cfg.Concentration + int(h.DstC)
		if requester < len(cl.pending) && cl.pending[requester] > 0 {
			cl.pending[requester]--
		}
		cl.Completed++
		return
	}
	// A request arrived: the target core answers.
	reply := &flit.Packet{Hdr: flit.Header{
		VC:    h.VC,
		SrcR:  h.DstR, // will be overwritten at injection, kept for clarity
		SrcC:  h.DstC,
		DstR:  h.SrcR,
		DstC:  h.SrcC,
		Mem:   h.Mem,
		Seq:   h.Seq,
		Spare: ReplyMark,
	}}
	for i := 0; i < cl.ReplyBody; i++ {
		reply.Body = append(reply.Body, uint64(h.Mem)+uint64(i))
	}
	cl.replyQueue = append(cl.replyQueue, reply)
}

// Pending returns the total outstanding requests across all cores.
func (cl *ClosedLoop) Pending() int {
	n := 0
	for _, p := range cl.pending {
		n += p
	}
	return n
}
