// Command campaign runs declarative scenario sweeps: a JSON spec expands
// into a grid of experiment points, executed by a worker pool of reusable
// simulation arenas and streamed to JSONL with periodic checkpoints.
//
//	campaign run -spec grid.json -out sweep.jsonl -workers 8
//	campaign resume -spec grid.json -out sweep.jsonl -workers 8
//	campaign aggregate -in sweep.jsonl
//	campaign aggregate -in sweep.jsonl -preset adaptive
//
// Each preset (cross-topology, scale, locate, adversary, adaptive) renders
// one study's table from the records of specs/<preset>.json.
//
// The output is deterministic: the same spec yields byte-identical JSONL at
// any worker count, and a killed run resumed with `campaign resume`
// completes to the same bytes as an uninterrupted one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
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
		err = aggregateCmd(os.Args[2:], os.Stdout)
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
	fmt.Fprintf(os.Stderr, `usage:
  campaign run       -spec <grid.json> -out <sweep.jsonl> [-workers N] [-checkpoint-every N] [-quiet]
  campaign resume    -spec <grid.json> -out <sweep.jsonl> [-workers N] [-checkpoint-every N] [-quiet]
  campaign aggregate -in <sweep.jsonl> [-preset %s]
`, strings.Join(presetNames(), "|"))
}

func presetNames() []string {
	var names []string
	for _, p := range campaign.Presets() {
		names = append(names, p.Name)
	}
	return names
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
	ckptEvery := fs.Int("checkpoint-every", 64, "records between checkpoints (0 = 64)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	fs.Parse(args)
	if *specPath == "" || *outPath == "" {
		return fmt.Errorf("%s: -spec and -out are required", name)
	}
	if *workers < 0 {
		return fmt.Errorf("%s: -workers = %d: must be positive, or 0 for GOMAXPROCS", name, *workers)
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("%s: -checkpoint-every = %d: must be positive, or 0 for 64", name, *ckptEvery)
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
	var stopped *campaign.StoppedError
	if errors.As(err, &stopped) {
		return fmt.Errorf("stopped at %d/%d records: %w (resume with: campaign resume)", written, total, err)
	}
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "done: %d records\n", written)
	}
	return nil
}

// aggregateCmd renders the table of a sweep's records to w. An input
// without records fails, naming the input, rather than print an empty
// table.
func aggregateCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aggregate", flag.ExitOnError)
	inPath := fs.String("in", "", "sweep JSONL path")
	preset := fs.String("preset", "", "table preset: '' (generic) or one of "+strings.Join(presetNames(), ", "))
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
		return fmt.Errorf("%s: %w", *inPath, err)
	}
	if len(records) == 0 {
		return fmt.Errorf("aggregate: %s holds no records", *inPath)
	}
	render := func(records []campaign.Record) (tab.Table, error) {
		groups, err := campaign.Aggregate(records)
		return campaign.Table(groups), err
	}
	if *preset != "" {
		render = nil
		for _, p := range campaign.Presets() {
			if p.Name == *preset {
				render = p.Render
			}
		}
		if render == nil {
			return fmt.Errorf("aggregate: unknown preset %q (want %s)", *preset, strings.Join(presetNames(), ", "))
		}
	}
	t, err := render(records)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}
