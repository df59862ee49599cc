// Command nocvet runs the repository's custom static-analysis suite
// (internal/analysis): mechanical enforcement of the two contracts the
// reproduction rests on — bit-deterministic simulation and an
// allocation-free Network.Step/Inject hot path — and of an internal API
// with no unused exports.
//
//	go run ./cmd/nocvet ./...
//
// Analyzers and where they apply (see DESIGN.md §10):
//
//	detrange       every module package       map iteration order leaks into output
//	detsource      every module package       math/rand, wall-clock, env, racy select
//	hotalloc       noc, campaign, detect,     allocations reachable from the hot-path
//	               locate                     roots (Step/Inject, per-point, per-sample)
//	hotcopy        noc, flit, traffic         large struct copies on the same paths
//	telemetrysafe  noc, campaign, detect      protected state mutated outside its file
//	deadexport     every internal/ package    exports no non-test code uses
//
// deadexport collects uses from the non-test code of the simulator module
// and of its bench/ module, whatever packages are named. Escape hatches are
// //nocvet:orderfree, //nocvet:allowalloc, //nocvet:allowcopy,
// //nocvet:nondet and //nocvet:keep comments, each requiring a reason;
// malformed or unused annotations are themselves findings. Exit status is 1
// when anything is reported, so `make lint` and the CI nocvet job gate on a
// clean tree.
package main

import (
	"flag"
	"fmt"
	"log"

	"tasp/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocvet: ")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nocvet [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	root, err := analysis.ModuleDir(".", "tasp")
	if err != nil {
		log.Fatal(err)
	}
	uses, err := analysis.LoadUses(root)
	if err != nil {
		log.Fatal(err)
	}
	findings := 0
	for _, pkg := range pkgs {
		suite := analysis.SuiteFor(pkg.ImportPath, uses)
		if len(suite) == 0 {
			continue
		}
		diags, err := analysis.RunAnalyzers(pkg, suite)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		log.Fatalf("%d finding(s)", findings)
	}
}
