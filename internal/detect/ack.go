// Secure-acknowledgment monitoring: the runtime counter to trojans the
// fault-triggered detector (detect.go) can never see. A drop trojan swallows
// flits and forges the link ACK — no syndrome, no NACK, no fault event — and
// a misroute trojan re-encodes a valid codeword, so on both the per-link
// threat detector stays Healthy forever. The secure-ack scheme instead
// cross-checks the two ends of every link: the sender's count of acknowledged
// traversals against the receiver's count of actual arrivals. On a healthy
// link the two agree at all times; a gap that keeps growing while the link is
// demonstrably flowing (no blocked ports to blame) is in-flight loss, and an
// arrival that the routing function would never have produced is an in-flight
// header rewrite.
package detect

import "fmt"

// AckClass is the secure-ack monitor's verdict about a link.
type AckClass uint8

// Secure-ack verdicts.
const (
	// AckHealthy: sent and received counts agree, arrivals conform to the
	// route function.
	AckHealthy AckClass = iota
	// AckSuspect: the sent/received gap grew this window, but not yet for
	// enough consecutive windows to convict.
	AckSuspect
	// AckDropper: flits are being consumed in flight under forged ACKs —
	// convicted by the consecutive-window streak, the cumulative-deficit
	// channel, or the cross-link fused view (see AckChannel).
	AckDropper
	// AckMisroute: the receiving side saw route-violating arrivals —
	// headers are being rewritten in flight.
	AckMisroute
)

// AckChannel names the evidence channel that convicted a link — the
// explainability tag beside the verdict.
type AckChannel uint8

// Conviction channels.
const (
	// ChannelNone: the link is not convicted.
	ChannelNone AckChannel = iota
	// ChannelStreak: the gap grew over DefaultMinGapWindows consecutive
	// unblocked windows — the stock detector, defeated by duty-cycled droppers.
	ChannelStreak
	// ChannelDeficit: the link's cumulative unexplained loss crossed the
	// long-horizon deficit ratio — catches throttled droppers whose bursts
	// never complete a streak.
	ChannelDeficit
	// ChannelFused: the cross-link fused view attributed a network-wide
	// sustained deficit to this link — catches colluding droppers that
	// rotate strikes so no single link sustains either per-link channel.
	ChannelFused
	// ChannelViolation: a route-conformance violation — the misroute
	// signature, unambiguous on first sight.
	ChannelViolation
)

// String names the channel as experiment records spell it.
func (c AckChannel) String() string {
	switch c {
	case ChannelNone:
		return "none"
	case ChannelStreak:
		return "streak"
	case ChannelDeficit:
		return "deficit"
	case ChannelFused:
		return "fused"
	case ChannelViolation:
		return "violation"
	default:
		return fmt.Sprintf("ackchannel(%d)", uint8(c))
	}
}

// String names the verdict as experiment records spell it.
func (c AckClass) String() string {
	switch c {
	case AckHealthy:
		return "healthy"
	case AckSuspect:
		return "ack-suspect"
	case AckDropper:
		return "dropper"
	case AckMisroute:
		return "misroute"
	default:
		return fmt.Sprintf("ackclass(%d)", uint8(c))
	}
}

// AckObservation is one link's counter snapshot at a sampling window
// boundary: cumulative sender-acknowledged traversals, cumulative receiver
// deposits, cumulative route-conformance violations, and whether the link's
// output port was stalled at sampling time.
type AckObservation struct {
	FlitsSent       uint64
	FlitsRecv       uint64
	RouteViolations uint64
	Blocked         bool
}

// DefaultMinGapWindows is the consecutive growing-gap windows required to
// convict a dropper. One window tolerates sampling races; three in a row on
// an unblocked link do not happen by accident.
const DefaultMinGapWindows = 3

// Cumulative-deficit channel defaults. The streak channel asks "is the gap
// growing right now, repeatedly?"; the deficit channel asks "how many flits
// has this link lost over the whole run, relative to what it carried?" — a
// question a duty-cycled dropper cannot game, because quiet windows stop the
// streak but never refund the loss.
const (
	// DefaultDeficitRatio is the cumulative unexplained-loss fraction of
	// sent traffic that convicts: 1% of carried flits vanishing without a
	// blocked port to blame is far outside sampling noise (a healthy link's
	// long-horizon deficit is zero — late arrivals are refunded when the
	// next window's gap shrinks back).
	DefaultDeficitRatio = 0.01
	// DefaultDeficitMinLoss is the absolute loss floor in flits: the ratio
	// alone would convict a nearly idle link on a handful of skewed samples.
	DefaultDeficitMinLoss = 25
)

// AckMonitor runs the secure-ack scheme over all links of one network. It is
// sampled periodically (the experiment loop feeds it at every telemetry
// sample) and holds per-link windowed state; Observe is allocation-free, so
// the monitor can sit inside the campaign hot loop. Verdicts escalate
// monotonically: once a link is convicted it stays convicted (the hardware
// latches the alarm).
//
// Three conviction channels feed the same latched verdict:
//
//   - streak (per-link): DefaultMinGapWindows consecutive unblocked
//     growing-gap windows — fast against a naive dropper, blind to duty
//     cycling;
//   - deficit (per-link): the cumulative unexplained loss crosses
//     DeficitRatio of sent traffic (with the DefaultDeficitMinLoss floor) —
//     slower, but immune to duty cycling because loss accumulates across
//     quiet windows;
//   - fused (cross-link): the sum of all links' unblocked gap growth
//     sustains a network-wide streak (FinishWindow), and the accumulated
//     fused deficit is attributed to the leaking links — catches colluders
//     whose rotation keeps every per-link channel below threshold.
type AckMonitor struct {
	// DeficitRatio is the cumulative-loss fraction of sent flits that
	// convicts via the deficit channel (0 = DefaultDeficitRatio; negative
	// disables the deficit and fused channels — the stock streak-only
	// detector, kept for ablation).
	DeficitRatio float64

	links []ackLink

	// Cross-link fused view: unblocked gap growth summed over all links in
	// the current window, and the consecutive-window streak of that sum.
	windowGrowth uint64
	fusedStreak  int32
}

// ackLink is one link's windowed state and verdict.
type ackLink struct {
	prevGap  uint64 // the sent/received gap at the last window
	prevViol uint64 // route violations counted by the last window
	deficit  uint64 // cumulative unexplained loss
	streak   int32  // consecutive unblocked growing-gap windows
	class    AckClass
	channel  AckChannel
}

// NewAckMonitor returns a monitor for a network with the given link count.
func NewAckMonitor(links int) *AckMonitor {
	return &AckMonitor{links: make([]ackLink, links)}
}

// Reset clears every window and verdict without allocating (arena reuse).
func (m *AckMonitor) Reset() {
	clear(m.links)
	m.windowGrowth = 0
	m.fusedStreak = 0
}

// CopyFrom makes m's windows and verdicts a copy of src's, reusing m's
// array: the run-fork checkpoint saves a monitor into a spare one and
// restores it back. DeficitRatio belongs to the run and is left alone.
func (m *AckMonitor) CopyFrom(src *AckMonitor) {
	m.links = append(m.links[:0], src.links...)
	m.windowGrowth, m.fusedStreak = src.windowGrowth, src.fusedStreak
}

func (m *AckMonitor) deficitRatio() float64 {
	if m.DeficitRatio == 0 {
		return DefaultDeficitRatio
	}
	return m.DeficitRatio
}

// convict latches a dropper verdict from the given channel. Misroute wins
// ties (it is the stronger, unambiguous evidence) and the first dropper
// channel to fire keeps the credit.
func (m *AckMonitor) convict(linkID int, ch AckChannel) {
	l := &m.links[linkID]
	if l.class == AckMisroute || l.class == AckDropper {
		return
	}
	l.class = AckDropper
	l.channel = ch
}

// Observe feeds one link's window snapshot and updates its verdict.
func (m *AckMonitor) Observe(linkID int, o AckObservation) {
	l := &m.links[linkID]
	if o.RouteViolations > l.prevViol {
		// A non-conforming arrival is unambiguous: no benign cause produces
		// a valid codeword carrying a destination this link cannot serve.
		l.class = AckMisroute
		l.channel = ChannelViolation
	}
	l.prevViol = o.RouteViolations
	// Clamp, don't wrap: sampling skew can land a prior window's deposit
	// before its acknowledgment is counted, making recv momentarily exceed
	// sent. Unsigned subtraction would turn that into a ~2^64 "gap" and
	// forge streak growth (and an instant deficit conviction).
	var gap uint64
	if o.FlitsSent > o.FlitsRecv {
		gap = o.FlitsSent - o.FlitsRecv
	}
	deficitOn := m.DeficitRatio >= 0
	switch {
	case gap > l.prevGap && !o.Blocked:
		if deficitOn {
			grow := gap - l.prevGap
			l.deficit += grow
			m.windowGrowth += grow
		}
		l.streak++
		if l.streak >= DefaultMinGapWindows {
			m.convict(linkID, ChannelStreak)
		} else if l.class == AckHealthy {
			l.class = AckSuspect
		}
	case gap > l.prevGap:
		// The gap grew but the port is stalled: congestion may explain
		// withheld end-to-end acknowledgments, so the streak is discounted
		// (it holds, neither growing nor resetting) and the deficit books
		// the growth at half weight — the congestion discount. A full
		// exemption would hand the adversary a shield: a dropper whose own
		// damage congests the link (or a colluder striking during bursts)
		// could bleed the victim forever behind blocked samples, while a
		// healthy link never grows its gap at all, blocked or not.
		if deficitOn {
			grow := (gap - l.prevGap) / 2
			l.deficit += grow
			m.windowGrowth += grow
		}
	default:
		// A quiet window breaks the streak; a provisional suspicion lapses,
		// a conviction does not. A *shrinking* gap means earlier counted
		// growth was sampling skew (the flits arrived after all), so the
		// refund is taken back out of the cumulative deficit.
		if deficitOn && gap < l.prevGap {
			if back := l.prevGap - gap; back >= l.deficit {
				l.deficit = 0
			} else {
				l.deficit -= back
			}
		}
		l.streak = 0
		if l.class == AckSuspect {
			l.class = AckHealthy
		}
	}
	l.prevGap = gap
	if deficitOn {
		if d := l.deficit; d >= DefaultDeficitMinLoss && float64(d) >= m.deficitRatio()*float64(o.FlitsSent) {
			m.convict(linkID, ChannelDeficit)
		}
	}
}

// FinishWindow closes a sampling window after every link has been Observed:
// the cross-link fused view for collusion. Colluders rotate the strike duty
// so each member's gap grows only every n-th turn — but *someone's* gap
// grows every window, so the network-wide sum of unblocked gap growth
// sustains exactly the streak no single link shows. Once the fused streak
// reaches DefaultMinGapWindows and the accumulated loss clears the floor, the
// deficit is attributed to the leak set: every link carrying at least half
// its equal share of the fused deficit is convicted. Allocation-free, like
// Observe.
func (m *AckMonitor) FinishWindow() {
	growth := m.windowGrowth
	m.windowGrowth = 0
	if m.DeficitRatio < 0 {
		return
	}
	if growth > 0 {
		m.fusedStreak++
	} else {
		m.fusedStreak = 0
	}
	if m.fusedStreak < DefaultMinGapWindows {
		return
	}
	var fused uint64
	leaks := 0
	for i := range m.links {
		if d := m.links[i].deficit; d > 0 {
			fused += d
			leaks++
		}
	}
	if leaks == 0 || fused < DefaultDeficitMinLoss {
		return
	}
	// Attribution bar: half the equal share. Rotating colluders each hold
	// ~1/n of the fused deficit and clear it; a link holding a stray skewed
	// sample or two does not.
	bar := fused / uint64(2*leaks)
	if bar == 0 {
		bar = 1
	}
	for i := range m.links {
		if m.links[i].deficit >= bar {
			m.convict(i, ChannelFused)
		}
	}
}

// Class returns a link's current verdict.
func (m *AckMonitor) Class(linkID int) AckClass { return m.links[linkID].class }

// Channel returns the evidence channel that convicted a link (ChannelNone
// while unconvicted).
func (m *AckMonitor) Channel(linkID int) AckChannel { return m.links[linkID].channel }

// Flagged counts links convicted as droppers or misrouters.
func (m *AckMonitor) Flagged() int {
	n := 0
	for i := range m.links {
		if c := m.links[i].class; c == AckDropper || c == AckMisroute {
			n++
		}
	}
	return n
}
