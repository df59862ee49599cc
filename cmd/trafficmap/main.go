// Command trafficmap prints the Figure 1 traffic-distribution views for a
// benchmark: the source/destination matrix, the geographic source hot
// spots, and the per-link traffic shares under XY routing.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"tasp"
	"tasp/internal/exp"
	"tasp/internal/noc"
	"tasp/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trafficmap: ")
	var (
		bench = flag.String("bench", "blackscholes", "benchmark: "+strings.Join(tasp.Benchmarks(), ", "))
		fig   = flag.String("fig", "all", "which view: 1a, 1b, 1c, all")
		heat  = flag.Bool("map", false, "also render ASCII mesh heatmaps")
	)
	flag.Parse()

	cfg := noc.DefaultConfig()
	f, err := exp.RunFigure1(*bench, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *heat {
		fmt.Println(viz.RouterHeatmap(cfg, *bench+": per-router source share", f.RouterTotals))
		fmt.Println(viz.LinkMap(cfg, *bench+": per-link traffic share (XY)", f.ShareBetween))
	}
	switch *fig {
	case "1a":
		fmt.Println(f.MatrixTable().Render())
	case "1b":
		fmt.Println(f.HotspotTable(cfg).Render())
	case "1c":
		fmt.Println(f.LinkTable().Render())
	case "all":
		fmt.Println(f.MatrixTable().Render())
		fmt.Println(f.HotspotTable(cfg).Render())
		fmt.Println(f.LinkTable().Render())
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
}
