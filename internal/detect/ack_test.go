package detect

import (
	"reflect"
	"slices"
	"testing"
)

func obsGap(sent, recv uint64, blocked bool) AckObservation {
	return AckObservation{FlitsSent: sent, FlitsRecv: recv, Blocked: blocked}
}

func TestAckMonitorHealthyLinkStaysHealthy(t *testing.T) {
	m := NewAckMonitor(4)
	for w := uint64(1); w <= 10; w++ {
		m.Observe(0, obsGap(100*w, 100*w, false))
	}
	if c := m.Class(0); c != AckHealthy {
		t.Fatalf("healthy link classified %v", c)
	}
	if m.Flagged() != 0 {
		t.Fatal("healthy monitor flagged links")
	}
}

func TestAckMonitorConvictsDropperAfterStreak(t *testing.T) {
	m := NewAckMonitor(2)
	// Growing gap on an unblocked link: suspect for the first two windows,
	// convicted on the third (DefaultMinGapWindows).
	m.Observe(0, obsGap(100, 99, false))
	if c := m.Class(0); c != AckSuspect {
		t.Fatalf("after 1 window: %v, want ack-suspect", c)
	}
	m.Observe(0, obsGap(200, 198, false))
	if c := m.Class(0); c != AckSuspect {
		t.Fatalf("after 2 windows: %v, want ack-suspect", c)
	}
	m.Observe(0, obsGap(300, 297, false))
	if c := m.Class(0); c != AckDropper {
		t.Fatalf("after 3 windows: %v, want dropper", c)
	}
	if m.Flagged() != 1 {
		t.Fatalf("Flagged = %d, want 1", m.Flagged())
	}
}

func TestAckMonitorBlockedWindowHoldsStreak(t *testing.T) {
	m := NewAckMonitor(1)
	m.Observe(0, obsGap(100, 99, false))
	m.Observe(0, obsGap(200, 198, false))
	// The port is stalled: congestion could explain the withheld ACKs, so
	// this window neither grows nor resets the streak.
	m.Observe(0, obsGap(300, 297, true))
	if c := m.Class(0); c == AckDropper {
		t.Fatal("blocked window counted toward conviction")
	}
	// Flow resumes with the gap still growing: the held streak completes.
	m.Observe(0, obsGap(400, 396, false))
	if c := m.Class(0); c != AckDropper {
		t.Fatalf("after resumed growth: %v, want dropper", c)
	}
}

func TestAckMonitorSuspicionLapsesConvictionSticks(t *testing.T) {
	m := NewAckMonitor(1)
	m.Observe(0, obsGap(100, 99, false))
	if c := m.Class(0); c != AckSuspect {
		t.Fatalf("after growth: %v, want ack-suspect", c)
	}
	// A quiet window (gap stable) lapses a provisional suspicion.
	m.Observe(0, obsGap(200, 199, false))
	if c := m.Class(0); c != AckHealthy {
		t.Fatalf("suspicion did not lapse: %v", c)
	}
	// Convict, then go quiet: the verdict is latched.
	for w := uint64(1); w <= 3; w++ {
		m.Observe(0, obsGap(200+10*w, 199+9*w, false))
	}
	if c := m.Class(0); c != AckDropper {
		t.Fatalf("conviction missing: %v", c)
	}
	for w := uint64(0); w < 5; w++ {
		m.Observe(0, obsGap(500, 496, false))
	}
	if c := m.Class(0); c != AckDropper {
		t.Fatalf("conviction lapsed to %v", c)
	}
}

func TestAckMonitorRouteViolationConvictsImmediately(t *testing.T) {
	m := NewAckMonitor(1)
	m.Observe(0, AckObservation{FlitsSent: 100, FlitsRecv: 100, RouteViolations: 1})
	if c := m.Class(0); c != AckMisroute {
		t.Fatalf("after violating arrival: %v, want misroute", c)
	}
	// Misroute outranks a later dropper streak: the unambiguous evidence
	// keeps the verdict.
	for w := uint64(1); w <= 4; w++ {
		m.Observe(0, AckObservation{FlitsSent: 100 + 10*w, FlitsRecv: 100 + 9*w, RouteViolations: 1})
	}
	if c := m.Class(0); c != AckMisroute {
		t.Fatalf("misroute verdict displaced by %v", c)
	}
}

// TestAckMonitorDeficitFloor: the deficit channel convicts only once the
// unexplained loss reaches DefaultDeficitMinLoss flits, however large a
// share of the sent flits a smaller loss is.
func TestAckMonitorDeficitFloor(t *testing.T) {
	m := NewAckMonitor(1)
	lost := uint64(DefaultDeficitMinLoss - 1)
	m.Observe(0, obsGap(100, 100-lost, false)) // a quarter lost, one window
	m.Observe(0, obsGap(200, 200-lost, false)) // quiet: the streak breaks
	if c := m.Class(0); c != AckHealthy {
		t.Fatalf("%d flits lost: %v, want healthy", lost, c)
	}
	m.Observe(0, obsGap(300, 300-lost-1, false))
	if c, ch := m.Class(0), m.Channel(0); c != AckDropper || ch != ChannelDeficit {
		t.Fatalf("%d flits lost: %v via %v, want dropper via deficit", lost+1, c, ch)
	}
}

func TestAckMonitorReset(t *testing.T) {
	m := NewAckMonitor(2)
	for w := uint64(1); w <= 3; w++ {
		m.Observe(0, obsGap(10*w, 9*w, false))
	}
	m.Observe(1, AckObservation{RouteViolations: 2})
	if m.Flagged() != 2 {
		t.Fatalf("Flagged = %d, want 2", m.Flagged())
	}
	m.Reset()
	if m.Flagged() != 0 {
		t.Fatal("Reset left flagged links")
	}
	for i := range m.links {
		if c := m.Class(i); c != AckHealthy {
			t.Fatalf("link %d still %v after Reset", i, c)
		}
	}
	// State is genuinely rewound: the first post-reset window is a fresh
	// streak start, not a continuation.
	m.Observe(0, obsGap(40, 36, false))
	if c := m.Class(0); c != AckSuspect {
		t.Fatalf("post-reset first window: %v, want ack-suspect", c)
	}
}

// TestAckGapUnderflowSkewClamps is the regression test for the uint64
// underflow: sampling skew can land a window where recv momentarily exceeds
// sent (a prior window's deposit counted before its acknowledgment).
// Unsigned subtraction turned that into a ~2^64 "gap", forging streak
// growth and an instant deficit conviction of a perfectly healthy link.
func TestAckGapUnderflowSkewClamps(t *testing.T) {
	m := NewAckMonitor(2)
	m.Observe(0, obsGap(100, 100, false))
	// Skewed window: 5 more flits acknowledged than sent.
	m.Observe(0, obsGap(200, 205, false))
	if c := m.Class(0); c != AckHealthy {
		t.Fatalf("skewed window classified %v, want healthy", c)
	}
	if d := m.links[0].deficit; d != 0 {
		t.Fatalf("skewed window booked deficit %d, want 0", d)
	}
	// The skew settles; the link must still read healthy.
	m.Observe(0, obsGap(300, 300, false))
	if c := m.Class(0); c != AckHealthy {
		t.Fatalf("after settled skew: %v, want healthy", c)
	}
	if m.Flagged() != 0 {
		t.Fatal("underflow skew flagged a healthy link")
	}
}

// TestAckMonitorDeficitConvictsDutyCycledDropper pins the cumulative-deficit
// channel against the throttle family: the gap grows only every other
// window, so the consecutive-window streak never completes — but loss
// accumulates across the quiet windows until it crosses the deficit ratio.
func TestAckMonitorDeficitConvictsDutyCycledDropper(t *testing.T) {
	m := NewAckMonitor(1)
	sent, gap := uint64(0), uint64(0)
	for w := 0; w < 4 && m.Class(0) != AckDropper; w++ {
		sent += 1000
		gap += 20 // active window: the trojan swallows 20 flits
		m.Observe(0, obsGap(sent, sent-gap, false))
		if m.links[0].streak >= DefaultMinGapWindows {
			t.Fatal("duty-cycled dropper accumulated a streak: tuning broken")
		}
		sent += 1000 // quiet window: gap holds, streak resets
		m.Observe(0, obsGap(sent, sent-gap, false))
	}
	if c := m.Class(0); c != AckDropper {
		t.Fatalf("duty-cycled dropper classified %v, want dropper", c)
	}
	if ch := m.Channel(0); ch != ChannelDeficit {
		t.Fatalf("convicted via %v, want deficit", ch)
	}
}

// TestAckMonitorStockMissesDutyCycledDropper is the ablation counterpart:
// with the deficit channel disabled (DeficitRatio < 0, the stock
// streak-only detector) the identical duty-cycled loss pattern never
// convicts — the evasion the adaptive families are engineered for.
func TestAckMonitorStockMissesDutyCycledDropper(t *testing.T) {
	m := NewAckMonitor(1)
	m.DeficitRatio = -1
	sent, gap := uint64(0), uint64(0)
	for w := 0; w < 50; w++ {
		sent += 1000
		gap += 20
		m.Observe(0, obsGap(sent, sent-gap, false))
		sent += 1000
		m.Observe(0, obsGap(sent, sent-gap, false))
	}
	if c := m.Class(0); c == AckDropper || c == AckMisroute {
		t.Fatalf("stock detector convicted the duty-cycled dropper (%v)", c)
	}
	if m.Flagged() != 0 {
		t.Fatal("stock detector flagged links")
	}
}

// TestAckMonitorFusedConvictsRotatingColluders pins the cross-link fused
// view: three links rotate the strike so each one's gap grows only every
// third window — no per-link streak, per-link deficits held under the
// ratio — but the network-wide sum of unblocked gap growth sustains a
// streak no single link shows, and the accumulated fused deficit is
// attributed back to every link carrying its share of the leak.
func TestAckMonitorFusedConvictsRotatingColluders(t *testing.T) {
	m := NewAckMonitor(3)
	sent := uint64(0)
	gaps := [3]uint64{}
	for w := 0; w < 6; w++ {
		sent += 6000 // heavy per-link traffic keeps per-link deficits sub-ratio
		gaps[w%3] += 30
		for l := 0; l < 3; l++ {
			m.Observe(l, obsGap(sent, sent-gaps[l], false))
		}
		m.FinishWindow()
	}
	for l := 0; l < 3; l++ {
		if c := m.Class(l); c != AckDropper {
			t.Errorf("colluder %d classified %v, want dropper", l, c)
		}
		if ch := m.Channel(l); ch != ChannelFused {
			t.Errorf("colluder %d convicted via %v, want fused", l, ch)
		}
	}
}

// TestAckMonitorFusedSparesBystander checks the attribution bar: a healthy
// link sharing the window with rotating colluders (zero deficit of its own)
// must not be swept up by the fused conviction.
func TestAckMonitorFusedSparesBystander(t *testing.T) {
	m := NewAckMonitor(4)
	sent := uint64(0)
	gaps := [3]uint64{}
	for w := 0; w < 6; w++ {
		sent += 6000
		gaps[w%3] += 30
		for l := 0; l < 3; l++ {
			m.Observe(l, obsGap(sent, sent-gaps[l], false))
		}
		m.Observe(3, obsGap(sent, sent, false)) // bystander: no gap, ever
		m.FinishWindow()
	}
	if c := m.Class(3); c != AckHealthy {
		t.Fatalf("bystander classified %v, want healthy", c)
	}
	for l := 0; l < 3; l++ {
		if c := m.Class(l); c != AckDropper {
			t.Errorf("colluder %d classified %v, want dropper", l, c)
		}
	}
}

// TestAckMonitorClassifiesEveryField walks the monitor field by field.
// Its windows and verdicts — the per-link records and the fused view —
// are what Reset clears and CopyFrom copies for the run-fork checkpoint;
// DeficitRatio is the run's tuning, set before the run and left alone by
// both. A field added to the monitor fails here until it is classified, so
// none can be added that CopyFrom forgets.
func TestAckMonitorClassifiesEveryField(t *testing.T) {
	state := []string{"links", "windowGrowth", "fusedStreak"}
	tuning := []string{"DeficitRatio"}
	typ := reflect.TypeFor[AckMonitor]()
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !slices.Contains(state, name) && !slices.Contains(tuning, name) {
			t.Errorf("AckMonitor.%s is neither window state nor tuning", name)
		}
	}
	// Every piece of window state survives a copy and a reset clears it.
	src := NewAckMonitor(3)
	for w := uint64(1); w <= 4; w++ {
		src.Observe(1, obsGap(100*w, 90*w, false))
		src.Observe(2, AckObservation{FlitsSent: 10 * w, RouteViolations: 1})
		src.FinishWindow()
	}
	src.windowGrowth = 7 // mid-window: Observe has booked growth FinishWindow has not closed
	dst := NewAckMonitor(3)
	dst.CopyFrom(src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("CopyFrom gave %+v, want %+v", dst, src)
	}
	dst.Reset()
	if fresh := NewAckMonitor(3); !reflect.DeepEqual(dst, fresh) {
		t.Fatalf("Reset left %+v, want %+v", dst, fresh)
	}
}
