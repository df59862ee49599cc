// Command nocsim runs one NoC simulation with a configurable workload,
// attack and mitigation, and prints the resulting counters and occupancy
// series.
//
// Examples:
//
//	nocsim -bench blackscholes -mitigation none
//	nocsim -bench ferret -mitigation s2s-lob -links 3 -target dest -dest 2
//	nocsim -bench fft -attack=false -cycles 5000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"tasp"
	"tasp/internal/campaign"
	"tasp/internal/exp"
	"tasp/internal/noc"
	"tasp/internal/viz"
)

// configure parses the command line into a validated run configuration and
// the -map switch. The attack, mitigation and platform flags fill a
// campaign.Scenario, so the CLI takes the names and range checks campaign
// specs use; -conc, -vcs and -sample, which specs do not carry, apply to
// the lowered configuration.
func configure(args []string) (tasp.Config, bool, error) {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "blackscholes", "traffic model: "+strings.Join(tasp.Benchmarks(), ", "))
		topology   = fs.String("topology", "mesh", "network substrate: "+strings.Join(noc.Topologies(), ", "))
		width      = fs.Int("width", 4, "substrate columns (8 for an 8x8/256-core mesh)")
		height     = fs.Int("height", 4, "substrate rows")
		conc       = fs.Int("conc", 4, "cores per router (1..8)")
		vcs        = fs.Int("vcs", 4, "virtual channels per port (1..8)")
		seed       = fs.Uint64("seed", 1, "deterministic simulation seed")
		warmup     = fs.Int("warmup", 1500, "cycles before the kill switch flips (0 = 1500)")
		cycles     = fs.Int("cycles", 1500, "cycles simulated after the kill switch (0 = 1500)")
		attack     = fs.Bool("attack", true, "deploy TASP trojans")
		attackMode = fs.String("attack-mode", "flip", "trojan family: flip, drop, misroute, throttle, collude")
		hijack     = fs.Int("hijack", -1, "misroute diversion router (-1 = farthest from the victim; 0 is a valid explicit router)")
		dutyPeriod = fs.Int("duty-period", 0, "throttle/collude duty period in cycles (0 = tuned default)")
		dutyActive = fs.Int("duty-active", 0, "throttle active cycles per period (0 = tuned default)")
		secureAck  = fs.Bool("secure-ack", false, "run the secure-acknowledgment monitor and print its per-link verdicts")
		doRecover  = fs.Bool("recover", false, "reroute around links the secure-ack monitor convicts mid-run (implies -secure-ack)")
		links      = fs.Int("links", 2, "number of infected links (target-flow hottest; 0 = 2)")
		target     = fs.String("target", "dest", "trojan target kind: dest, src, dest-src, vc, mem, full")
		dest       = fs.Int("dest", 0, "target destination router")
		src        = fs.Int("src", 0, "target source router")
		vc         = fs.Int("vc", 0, "target virtual channel")
		mitigation = fs.String("mitigation", "none", "none, s2s-lob, e2e-obfuscation, tdm-qos, rerouting")
		ber        = fs.Float64("ber", 0, "background transient bit-error rate per link bit")
		sample     = fs.Int("sample", 100, "occupancy sampling period in cycles")
		heat       = fs.Bool("map", false, "render an ASCII heatmap of final blocked-port pressure")
		doLocate   = fs.Bool("locate", false, "run the DoS localization layer and print the ranked suspect links")
	)
	if err := fs.Parse(args); err != nil {
		return tasp.Config{}, false, err
	}
	sc := campaign.Scenario{
		Topology:  *topology,
		Width:     *width,
		Height:    *height,
		Benchmark: *bench,
		Seed:      *seed,
		Warmup:    *warmup,
		Measure:   *cycles,
		Attack: campaign.AttackSpec{
			Kind: *target, Dest: *dest, Src: *src, VC: *vc,
			// The mem and full targets strike the destination's address
			// region (the generator lays addresses out per router).
			Mem: uint32(*dest) << 24, MemMask: 0xff000000,
			NumLinks: *links, Mode: *attackMode,
			DutyPeriod: *dutyPeriod, DutyActive: *dutyActive,
		},
		Mitigation:   *mitigation,
		Locate:       *doLocate,
		SecureAck:    *secureAck || *doRecover,
		Recover:      *doRecover,
		TransientBER: *ber,
	}
	if !*attack {
		sc.Attack.Kind = "none"
	}
	if *hijack >= 0 {
		sc.Attack.Hijack = hijack
	}
	cfg, err := sc.Config()
	if err != nil {
		return cfg, false, err
	}
	cfg.Noc.Concentration = *conc
	cfg.Noc.VCs = *vcs
	cfg.SampleEvery = *sample
	return cfg, *heat, cfg.Validate()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsim: ")
	cfg, heat, err := configure(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	res, err := tasp.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark=%s topology=%s mitigation=%s seed=%d\n",
		cfg.Benchmark, cfg.Noc.TopoName(), cfg.Mitigation, cfg.Seed)
	if cfg.Attack.Enabled {
		fmt.Printf("infected links: %v (trojan matches=%d injections=%d)\n",
			res.InfectedLinks, res.HTMatches, res.HTInjections)
	}
	c := res.Final
	fmt.Printf("injected=%d delivered=%d retransmissions=%d corrected=%d inject-failures=%d\n",
		c.InjectedPackets, c.DeliveredPackets, c.Retransmissions, c.CorrectedFaults, c.InjectFailures)
	if c.DroppedFlits > 0 {
		fmt.Printf("dropped flits=%d (retrans=%d in-flight=%d orphan=%d reconfig=%d)\n",
			c.DroppedFlits, c.DroppedRetrans, c.DroppedInFlight, c.DroppedOrphan, c.DroppedReconfig)
	}
	fmt.Printf("throughput=%.3f pkt/cycle  avg latency=%.1f cycles  max=%d\n",
		res.Throughput, res.AvgLatency, c.MaxLatency)
	if len(res.Detections) > 0 {
		fmt.Printf("detections:\n")
		ids := make([]int, 0, len(res.Detections))
		for id := range res.Detections { //nocvet:orderfree ids are sorted before use
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Printf("  link %d: %s (trigger scope: %s)\n", id, res.Detections[id], res.TriggerScopes[id])
		}
		fmt.Printf("obfuscated traversals=%d, undo stall=%d cycles, BIST scans=%d\n",
			res.Obfuscated, res.StallCycles, res.BISTScans)
	}
	if res.ReroutedAt > 0 {
		fmt.Printf("rerouted at cycle %d\n", res.ReroutedAt)
	}
	if res.RecoveredAt > 0 {
		fmt.Printf("recovered at cycle %d (rerouted around convicted links %v)\n",
			res.RecoveredAt, res.RecoveredLinks)
	}
	if len(res.AckVerdicts) > 0 {
		fmt.Printf("secure-ack verdicts (first flagged at cycle %d):\n", res.AckFlaggedAt)
		ids := make([]int, 0, len(res.AckVerdicts))
		for id := range res.AckVerdicts { //nocvet:orderfree ids are sorted before use
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if ch, ok := res.AckChannels[id]; ok {
				fmt.Printf("  link %d: %s (channel: %s)\n", id, res.AckVerdicts[id], ch)
			} else {
				fmt.Printf("  link %d: %s\n", id, res.AckVerdicts[id])
			}
		}
	}
	if cfg.Locate && len(res.Suspects) > 0 {
		net, nerr := noc.New(cfg.Noc)
		if nerr != nil {
			log.Fatal(nerr)
		}
		names := net.Links()
		fmt.Printf("\nlocalization (top suspects; components det/early/growth/prior):\n")
		top := len(res.Suspects)
		if top > 8 {
			top = 8
		}
		for i, s := range res.Suspects[:top] {
			fmt.Printf("  #%d link %-3d %-22s score=%.3f conf=%.2f  [%.2f %.2f %.2f %.2f]\n",
				i+1, s.LinkID, names[s.LinkID], s.Score, s.Confidence,
				s.Det, s.Early, s.Growth, s.Prior)
		}
		if len(res.SuspectTrace) > 0 {
			last := res.SuspectTrace[len(res.SuspectTrace)-1]
			fmt.Printf("rank-1 trace: %d samples, final verdict link %d at cycle %d\n",
				len(res.SuspectTrace), last.LinkID, last.Cycle)
		}
	}
	fmt.Printf("\n%-8s %-9s %-9s %-9s %-8s %-8s %-8s\n",
		"cycle", "input", "output", "injq", "blocked", "allfull", ">50%full")
	for _, s := range res.Samples {
		fmt.Printf("%-8d %-9d %-9d %-9d %-8d %-8d %-8d\n",
			s.Cycle, s.InputFlits, s.OutputFlits, s.InjectionFlit,
			s.BlockedRouters, s.AllCoresFull, s.HalfCoresFull)
	}

	if heat {
		// Per-router pressure proxy from the sampled series is not kept;
		// render the analytic traffic hot spots alongside the infected
		// links so the attack geometry is visible.
		f, err := exp.RunFigure1(cfg.Benchmark, cfg.Noc)
		if err == nil {
			fmt.Println()
			fmt.Print(viz.RouterHeatmap(cfg.Noc, "workload source shares", f.RouterTotals))
			if n, nerr := noc.New(cfg.Noc); nerr == nil && len(res.InfectedLinks) > 0 {
				fmt.Printf("infected links:")
				for _, l := range n.Links() {
					for _, id := range res.InfectedLinks {
						if l.ID == id {
							fmt.Printf(" %s,", l)
						}
					}
				}
				fmt.Println()
			}
			fmt.Print(viz.LinkMap(cfg.Noc, "workload link loads (XY)", func(from, to int) float64 {
				return f.LinkShare[fmt.Sprintf("%d->%d", from, to)]
			}))
		}
	}
}
