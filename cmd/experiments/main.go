// Command experiments regenerates every table and figure of the paper's
// evaluation section. Run with -exp all (default) to print the whole set,
// or pick one of: fig1, fig2, fig8, fig9, fig10, fig11, fig12, table1,
// table2, headline, ablations, detectability, migration, closedloop,
// saturation. The extension studies outside the canonical set come from the
// campaign engine, so the canonical output stays regression-stable: each
// preset (cross-topology, scale, locate, adversary, adaptive) renders the
// records of its own spec, for example
//
//	campaign run -spec specs/locate.json -out locate.jsonl
//	campaign aggregate -in locate.jsonl -preset locate
//
// Experiments are independent and deterministically seeded, so -exp all
// fans them out across -parallel worker goroutines (default: one per CPU)
// while printing results in the canonical order, and every experiment fans
// its own independent simulation points across GOMAXPROCS goroutines. The
// output is byte-identical at any setting: -parallel=1 runs one experiment
// at a time, and GOMAXPROCS=1 with -parallel=1 is the fully serial run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tasp/internal/exp"
	"tasp/internal/noc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		which    = flag.String("exp", "all", "experiment id (fig1, fig2, fig8, fig9, fig10, fig11, fig12, table1, table2, headline, ablations, detectability, migration, closedloop, saturation, all; the extension studies are campaign aggregate presets)")
		bench    = flag.String("bench", "blackscholes", "benchmark for fig1")
		topology = flag.String("topology", "mesh", "substrate for fig1's workload characterisation: "+strings.Join(noc.Topologies(), ", "))
		width    = flag.Int("width", 4, "fig1 substrate columns (8 for an 8x8/256-core mesh)")
		height   = flag.Int("height", 4, "fig1 substrate rows")
		conc     = flag.Int("conc", 4, "fig1 cores per router (1..8)")
		vcs      = flag.Int("vcs", 4, "fig1 virtual channels per port (1..8)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", exp.DefaultWorkers(), "experiments -exp all runs at once (1 = one at a time, 0 = one per CPU; each still fans its points across GOMAXPROCS)")
	)
	flag.Parse()
	if *parallel < 0 {
		log.Fatalf("-parallel = %d: must be positive, or 0 for one per CPU", *parallel)
	}

	ncfg := noc.DefaultConfig()
	ncfg.Topo = *topology
	ncfg.Width = *width
	ncfg.Height = *height
	ncfg.Concentration = *conc
	ncfg.VCs = *vcs
	if err := ncfg.Validate(); err != nil {
		log.Fatal(err)
	}
	registry := exp.RegistryFor(*bench, ncfg)

	if *which == "all" {
		out, err := exp.RenderAll(exp.RunAll(registry, *seed, *parallel))
		os.Stdout.WriteString(out)
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	e, ok := exp.Lookup(registry, *which)
	if !ok {
		log.Fatalf("unknown experiment %q (known: %s, all)", *which, strings.Join(exp.IDs(registry), ", "))
	}
	tables, err := e.Run(*seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}
