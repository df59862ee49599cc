// Command campaign runs declarative scenario sweeps: a JSON spec expands
// into a grid of experiment points, executed by a worker pool of reusable
// simulation arenas and streamed to JSONL with periodic checkpoints.
//
//	campaign run -spec grid.json -out sweep.jsonl -workers 8
//	campaign resume -spec grid.json -out sweep.jsonl -workers 8
//	campaign aggregate -in sweep.jsonl
//	campaign aggregate -in sweep.jsonl -preset cross-topology
//	campaign aggregate -in sweep.jsonl -preset scale
//
// The output is deterministic: the same spec yields byte-identical JSONL at
// any worker count, and a killed run resumed with `campaign resume`
// completes to the same bytes as an uninterrupted one.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tasp/internal/campaign"
	"tasp/internal/tab"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:], false)
	case "resume":
		err = runCmd(os.Args[2:], true)
	case "aggregate":
		err = aggregateCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  campaign run       -spec <grid.json> -out <sweep.jsonl> [-workers N] [-checkpoint-every N] [-quiet]
  campaign resume    -spec <grid.json> -out <sweep.jsonl> [-workers N] [-checkpoint-every N] [-quiet]
  campaign aggregate -in <sweep.jsonl> [-preset cross-topology|scale]
`)
}

func runCmd(args []string, resume bool) error {
	name := "run"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	specPath := fs.String("spec", "", "scenario grid spec (JSON)")
	outPath := fs.String("out", "", "output JSONL path")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	ckptEvery := fs.Int("checkpoint-every", 64, "records between checkpoints")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	fs.Parse(args)
	if *specPath == "" || *outPath == "" {
		return fmt.Errorf("%s: -spec and -out are required", name)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	total := spec.Size()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%s: %d points -> %s\n", name, total, *outPath)
	}

	// A first interrupt cancels the sweep cleanly at a record boundary (the
	// checkpoint makes it resumable); a second kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := campaign.Options{
		Workers:         *workers,
		CheckpointEvery: *ckptEvery,
		Resume:          resume,
	}
	if !*quiet {
		opt.OnRecord = func(written int) {
			if written%100 == 0 || written == total {
				fmt.Fprintf(os.Stderr, "\r%d/%d", written, total)
			}
		}
	}
	written, err := campaign.Run(ctx, spec, *outPath, opt)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return fmt.Errorf("stopped at %d/%d records: %w (resume with: campaign resume)", written, total, err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "done: %d records\n", written)
	}
	return nil
}

func aggregateCmd(args []string) error {
	fs := flag.NewFlagSet("aggregate", flag.ExitOnError)
	inPath := fs.String("in", "", "sweep JSONL path")
	preset := fs.String("preset", "", "table preset: '' (generic), cross-topology or scale")
	fs.Parse(args)
	if *inPath == "" {
		return fmt.Errorf("aggregate: -in is required")
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := campaign.ReadRecords(f)
	if err != nil {
		return err
	}
	var t tab.Table
	switch *preset {
	case "":
		t = campaign.Table(campaign.Aggregate(records))
	case "cross-topology":
		t, err = campaign.CrossTopologyTable(records)
	case "scale":
		t, err = campaign.ScaleTable(records)
	default:
		return fmt.Errorf("aggregate: unknown preset %q", *preset)
	}
	if err != nil {
		return err
	}
	fmt.Println(t.Render())
	return nil
}
