// Command tracegen records workload models into trace files and inspects
// or replays them.
//
//	tracegen -bench blackscholes -cycles 5000 -o bs.trc     # record
//	tracegen -i bs.trc -info                                # inspect
//	tracegen -i bs.trc -replay                              # replay on the mesh
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tasp/internal/flit"
	"tasp/internal/noc"
	"tasp/internal/trace"
	"tasp/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		bench  = flag.String("bench", "blackscholes", "benchmark to record")
		cycles = flag.Int("cycles", 5000, "cycles to record")
		seed   = flag.Uint64("seed", 1, "generator seed")
		out    = flag.String("o", "", "output trace file (record mode)")
		in     = flag.String("i", "", "input trace file (inspect/replay mode)")
		info   = flag.Bool("info", false, "print trace summary")
		replay = flag.Bool("replay", false, "replay the trace on the default mesh")
	)
	flag.Parse()
	cfg := noc.DefaultConfig()

	switch {
	case *out != "":
		if *cycles < 1 {
			log.Fatalf("-cycles %d: need at least 1 cycle", *cycles)
		}
		m, err := traffic.Benchmark(*bench, cfg)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w, err := trace.NewWriter(f, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Record(w, m.Generator(*seed), *cycles); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recorded %d packets over %d cycles to %s\n", w.Count(), *cycles, *out)

	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			log.Fatal(err)
		}
		evs, err := r.ReadAll()
		if err != nil {
			log.Fatal(err)
		}
		if *info || !*replay {
			perDst := map[uint8]int{}
			flits := 0
			for _, e := range evs {
				perDst[e.DstR]++
				flits += 1 + int(e.Body)
			}
			last := uint32(0)
			if len(evs) > 0 {
				last = evs[len(evs)-1].Cycle
			}
			fmt.Printf("%s: %d cores, %d routers, %d packets (%d flits) over %d cycles\n",
				*in, r.Cores, r.Routers, len(evs), flits, last+1)
			fmt.Printf("hottest destinations:")
			// Walk the whole uint8 key space in order instead of ranging
			// the map: the hot list must print identically run to run.
			for d := 0; d < 256; d++ {
				if c := perDst[uint8(d)]; c*8 > len(evs) {
					fmt.Printf(" r%d(%d)", d, c)
				}
			}
			fmt.Println()
		}
		if *replay {
			pl := trace.NewPlayer(evs)
			n, err := noc.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			for !pl.Done() || n.Counters.DeliveredPackets < n.Counters.InjectedPackets {
				pl.Tick(n.Cycle(), func(core int, pk *flit.Packet) bool { return n.Inject(core, pk) })
				n.Step()
				if n.Cycle() > uint64(len(evs))*10+100000 {
					log.Fatal("replay did not drain; network wedged")
				}
			}
			c := n.Counters
			fmt.Printf("replayed: %d delivered in %d cycles, avg latency %.1f\n",
				c.DeliveredPackets, n.Cycle(), c.AvgLatency())
		}

	default:
		log.Fatal("need -o to record or -i to inspect/replay")
	}
}
