package core

import (
	"testing"

	"tasp/internal/detect"
	"tasp/internal/noc"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// adaptiveArms is the adaptive-adversary acceptance matrix: both families
// on every substrate at both pinned seeds.
var adaptiveArms = []struct {
	kind     tasp.Kind
	numLinks int
}{
	{tasp.KindThrottle, 2},
	{tasp.KindCollude, 3},
}

func adaptiveExp(topo string, seed uint64, kind tasp.Kind, numLinks int) ExperimentConfig {
	cfg := quickExp()
	cfg.Noc.Topo = topo
	cfg.Seed = seed
	cfg.Attack.Kind = kind
	cfg.Attack.NumLinks = numLinks
	cfg.SecureAck = true
	return cfg
}

// TestAdaptiveDroppersEvadeStockDetector pins the attack side of the arms
// race: at the default duty tuning, both adaptive families strike
// continuously while the stock streak-only detector (deficit and fused
// channels disabled) never convicts anyone — the consecutive-window streak
// is exactly what the duty cycle is engineered against.
func TestAdaptiveDroppersEvadeStockDetector(t *testing.T) {
	r := NewRunner()
	for _, topo := range []string{"mesh", "torus", "ring"} {
		for _, seed := range []uint64{1, 42} {
			for _, arm := range adaptiveArms {
				t.Run(topo+"/"+arm.kind.String(), func(t *testing.T) {
					cfg := adaptiveExp(topo, seed, arm.kind, arm.numLinks)
					cfg.AckDeficitRatio = -1 // stock streak-only detector
					res, err := r.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.HTInjections == 0 {
						t.Fatal("adaptive trojans never struck")
					}
					if res.Final.DroppedInFlight == 0 {
						t.Fatal("adaptive droppers swallowed nothing")
					}
					if res.AckFlaggedAt != 0 {
						t.Errorf("seed %d: stock detector convicted at cycle %d (verdicts %v), want evasion",
							seed, res.AckFlaggedAt, res.AckVerdicts)
					}
					for id, v := range res.AckVerdicts {
						if v == detect.AckDropper || v == detect.AckMisroute {
							t.Errorf("seed %d: stock detector convicted link %d as %v", seed, id, v)
						}
					}
				})
			}
		}
	}
}

// TestAdaptiveDroppersConvictedAndLocated is the defence side: with the
// full monitor, every infected link is convicted as a dropper — throttle
// via the per-link cumulative-deficit channel, collusion via the
// cross-link fused view — and the locate engine ranks an infected link
// first, on every substrate at both pinned seeds.
func TestAdaptiveDroppersConvictedAndLocated(t *testing.T) {
	wantChannel := map[tasp.Kind]detect.AckChannel{
		tasp.KindThrottle: detect.ChannelDeficit,
		tasp.KindCollude:  detect.ChannelFused,
	}
	r := NewRunner()
	for _, topo := range []string{"mesh", "torus", "ring"} {
		for _, seed := range []uint64{1, 42} {
			for _, arm := range adaptiveArms {
				t.Run(topo+"/"+arm.kind.String(), func(t *testing.T) {
					cfg := adaptiveExp(topo, seed, arm.kind, arm.numLinks)
					cfg.Locate = true
					res, err := r.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.InfectedLinks) != arm.numLinks {
						t.Fatalf("placed %v, want %d links", res.InfectedLinks, arm.numLinks)
					}
					if res.AckFlaggedAt == 0 {
						t.Fatal("full monitor never convicted")
					}
					for _, id := range res.InfectedLinks {
						if got := res.AckVerdicts[id]; got != detect.AckDropper {
							t.Errorf("seed %d: link %d verdict = %v, want dropper (all: %v)",
								seed, id, got, res.AckVerdicts)
						}
						if got := res.AckChannels[id]; got != wantChannel[arm.kind] {
							t.Errorf("seed %d: link %d convicted via %v, want %v",
								seed, id, got, wantChannel[arm.kind])
						}
					}
					if len(res.Suspects) == 0 {
						t.Fatal("locate produced no ranking")
					}
					rank1 := res.Suspects[0].LinkID
					hit := false
					for _, id := range res.InfectedLinks {
						hit = hit || id == rank1
					}
					if !hit {
						t.Errorf("seed %d: rank-1 = link %d, want one of %v",
							seed, rank1, res.InfectedLinks)
					}
				})
			}
		}
	}
}

// TestRecoveryRestoresVictimGoodput is the end-to-end recovery acceptance
// check: with recover-on-convict, the victim's post-conviction goodput
// must reach at least 90% of the post-fault capacity oracle — an otherwise
// identical run with the convicted links administratively disabled from
// cycle 0 (PredisabledLinks), which is what a zero-lag, zero-debris
// recovery would have delivered. Judging against the oracle rather than
// the fault-free clean rate isolates what recovery controls (detection
// lag, reconfiguration debris, reclamation) from the structural capacity
// the fabric lost with the links: the repo's own Figure 10 pins the
// rerouting baseline at ~75% of clean with two links out, so a
// whole-network ≥90%-of-clean bar would be structurally unreachable.
func TestRecoveryRestoresVictimGoodput(t *testing.T) {
	r := NewRunner()
	for _, topo := range []string{"mesh", "torus", "ring"} {
		for _, seed := range []uint64{1, 42} {
			for _, arm := range adaptiveArms {
				t.Run(topo+"/"+arm.kind.String(), func(t *testing.T) {
					base := adaptiveExp(topo, seed, arm.kind, arm.numLinks)
					// A long measure phase so the steady state, not the
					// reconfiguration transient, dominates the post window.
					base.Measure = 6500
					cfg := base
					cfg.RecoverOnConvict = true
					res, err := r.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					total := uint64(cfg.Warmup + cfg.Measure)
					if res.RecoveredAt == 0 || res.RecoveredAt >= total {
						t.Fatalf("no conviction-driven recovery (recoveredAt=%d)", res.RecoveredAt)
					}
					if len(res.RecoveredLinks) == 0 {
						t.Fatal("recovery disabled no links")
					}
					post := float64(res.VictimDelivered-res.VictimAtRecover) /
						float64(total-res.RecoveredAt)

					oracle := base
					oracle.PredisabledLinks = res.RecoveredLinks
					ores, err := r.Run(oracle)
					if err != nil {
						t.Fatal(err)
					}
					orate := float64(ores.VictimDelivered) / float64(oracle.Measure)
					if orate == 0 {
						t.Fatal("oracle run delivered no victim traffic")
					}
					if q := post / orate; q < 0.90 {
						t.Errorf("seed %d: post-recovery victim goodput %.3f/cycle is %.1f%% of the %.3f/cycle oracle, want >= 90%%",
							seed, post, 100*q, orate)
					}
				})
			}
		}
	}
}

// TestHijackSentinelRouterZero is the regression test for the misroute
// hijack sentinel: router 0 used to double as "auto-select", so an attacker
// could never aim the hijack at router 0 explicitly. The sentinel is -1.
func TestHijackSentinelRouterZero(t *testing.T) {
	r := NewRunner()
	cfg := quickExp()
	cfg.Attack.Kind = tasp.KindMisroute
	cfg.Attack.Target = tasp.ForDest(5)
	cfg.SecureAck = true

	cfg.Attack.Hijack = 0 // explicit: divert the victim's packets to router 0
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HTInjections == 0 {
		t.Fatal("misroute trojan never struck")
	}
	if res.HijackRouter != 0 {
		t.Fatalf("explicit Hijack=0 resolved to router %d, want 0", res.HijackRouter)
	}

	cfg.Attack.Hijack = -1 // sentinel: auto-select
	res, err = r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HijackRouter < 0 {
		t.Fatal("auto-select left no effective hijack router")
	}
	if res.HijackRouter == 5 {
		t.Fatal("auto-select picked the victim itself")
	}
}

// hijackByRouteWalk is the misroute hijack auto-selection as it was before
// it asked the topology for hop distances, kept as a test oracle: it walks
// the default route from the victim to every other router over the
// topology's links and picks the reachable router with the longest walk,
// ties to the higher id.
func hijackByRouteWalk(t noc.Topology, victim int) int {
	R := t.Routers()
	nextAt := make([]int, R*noc.MaxPorts)
	for i := range nextAt {
		nextAt[i] = -1
	}
	for _, l := range t.Links() {
		nextAt[l.From*noc.MaxPorts+l.FromPort] = l.To
	}
	best, bestDist := victim, -1
	for cand := 0; cand < R; cand++ {
		if cand == victim {
			continue
		}
		r, dist := victim, 0
		for hop := 0; r != cand && hop <= R; hop++ {
			nxt := nextAt[r*noc.MaxPorts+t.Route(r, cand)]
			if nxt < 0 {
				dist = -1
				break
			}
			r = nxt
			dist++
		}
		if r != cand || dist < 0 {
			continue
		}
		if dist > bestDist || (dist == bestDist && cand > best) {
			best, bestDist = cand, dist
		}
	}
	return best
}

// TestAutoHijackMatchesRouteWalk: the hop-distance argmax picks the route
// walk's router for every victim on mesh, torus and ring at seven sizes
// from 2x2 to 16x16.
func TestAutoHijackMatchesRouteWalk(t *testing.T) {
	victims := 0
	for _, name := range noc.Topologies() {
		for _, sz := range [][2]int{{2, 2}, {3, 2}, {2, 5}, {4, 4}, {5, 3}, {8, 8}, {16, 16}} {
			topo, err := noc.NewTopology(name, sz[0], sz[1])
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < topo.Routers(); v++ {
				if got, want := autoHijack(topo, v), hijackByRouteWalk(topo, v); got != want {
					t.Fatalf("%s %dx%d victim %d: hijack %d, route walk %d", name, sz[0], sz[1], v, got, want)
				}
				victims++
			}
		}
	}
	if victims != 1113 {
		t.Fatalf("%d victims compared, want 1113", victims)
	}
}

// TestCongestionNeverConvictsHealthyLinks soaks the full monitor (streak,
// deficit and fused channels) under congestion-only traffic: a hotspot
// workload hammering one router, no attack anywhere. Congestion delays
// end-to-end acknowledgments exactly the way the channels measure loss, so
// this pins the false-positive side of the congestion discount: no healthy
// link may ever be convicted, on any substrate, at either pinned seed.
func TestCongestionNeverConvictsHealthyLinks(t *testing.T) {
	r := NewRunner()
	for _, topo := range []string{"mesh", "torus", "ring"} {
		for _, seed := range []uint64{1, 42} {
			t.Run(topo, func(t *testing.T) {
				cfg := quickExp()
				cfg.Noc.Topo = topo
				cfg.Seed = seed
				cfg.Attack.Enabled = false
				cfg.SecureAck = true
				// Half of a heavy load aimed at the victim router: bursty
				// Bernoulli arrivals over a saturating hotspot.
				cfg.Model = traffic.Hotspot(cfg.Noc, 0.05, 0, 0.5)
				res, err := r.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				congested := false
				for _, s := range res.Samples {
					if s.BlockedRouters > 0 {
						congested = true
						break
					}
				}
				if !congested {
					t.Fatal("soak never congested a router: the discount was not exercised")
				}
				if res.AckFlaggedAt != 0 {
					t.Errorf("seed %d: monitor convicted under congestion-only traffic at cycle %d",
						seed, res.AckFlaggedAt)
				}
				for id, v := range res.AckVerdicts {
					if v == detect.AckDropper || v == detect.AckMisroute {
						t.Errorf("seed %d: healthy link %d convicted as %v (channel %v)",
							seed, id, v, res.AckChannels[id])
					}
				}
			})
		}
	}
}
