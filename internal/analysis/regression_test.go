package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"tasp/internal/analysis"
)

// TestSeededRegression is the acceptance check for the whole suite: plant
// the two canonical contract violations — a map range over router state and
// a math/rand import — in a noc-shaped package and prove the shipped
// internal/noc analyzer configuration (SuiteFor) turns both into findings.
// If either analyzer regressed to silence, introducing this exact code into
// internal/noc would sail through `make lint` and CI.
func TestSeededRegression(t *testing.T) {
	dir := t.TempDir()
	src := `package noc

import "math/rand"

type Router struct {
	occ uint64
}

type Network struct {
	routers map[int]*Router
}

func (n *Network) Step() {
	for id, r := range n.routers {
		r.occ |= 1 << uint(id%64)
	}
	_ = rand.Int()
}
`
	if err := os.WriteFile(filepath.Join(dir, "noc.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/noc"))
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["detrange"] == 0 {
		t.Errorf("map range over router state not flagged by detrange; got %v", diags)
	}
	if byAnalyzer["detsource"] == 0 {
		t.Errorf("math/rand import not flagged by detsource; got %v", diags)
	}
	if byAnalyzer["telemetrysafe"] == 0 {
		t.Errorf("direct Router.occ mutation outside sched.go not flagged by telemetrysafe; got %v", diags)
	}
}

// TestSeededRegressionCleanBaseline is the control: the same shape with the
// violations removed produces zero findings, so the regression test above
// fails for the right reason.
func TestSeededRegressionCleanBaseline(t *testing.T) {
	dir := t.TempDir()
	src := `package noc

type Router struct {
	occ uint64
}

// markOccupied lives in sched.go, the sanctioned mutation site.
func (r *Router) markOccupied(idx uint) { r.occ |= 1 << idx }

type Network struct {
	routers []*Router
}

func (n *Network) Step() {
	for id, r := range n.routers {
		r.markOccupied(uint(id % 64))
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "sched.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/noc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("clean baseline produced findings: %v", diags)
	}
}

// TestSeededRegressionHotCopy plants each per-cycle copy the hot path once
// made in a package shaped like the one that made it, and proves the
// shipped configuration for that package flags it: the network
// configuration and the flit-header layout passed by value into a router
// phase (internal/noc), a header decode taking the layout by value
// (internal/flit), and the traffic generator copying the model's
// configuration into a local once per packet (internal/traffic). Each copy
// is tiny on its own, but runs once per active router, flit or packet.
func TestSeededRegressionHotCopy(t *testing.T) {
	const config = `
type Config struct {
	Width, Height, Concentration, VCs, BufDepth, RetransDepth int
	InjQueueCap, RetransPenalty, MaxAttempts, StallThreshold  int
	PartitionRetrans, RetransPerVC                            bool
}

type Layout struct {
	Shifts [9]uint
	Widths [9]uint
}
`
	cases := []struct {
		pkg, src string
		want     int
	}{
		{"tasp/internal/noc", `package noc
` + config + `
type Router struct{ vcs int }

func (r *Router) phaseVA(cfg Config, l Layout) { r.vcs = cfg.VCs + int(l.Widths[0]) }

type Network struct {
	cfg     Config
	layout  Layout
	routers []*Router
}

func (n *Network) Step() {
	for _, r := range n.routers {
		r.phaseVA(n.cfg, n.layout)
	}
}
`, 2},
		{"tasp/internal/flit", `package flit
` + config + `
type Header struct{ DstR uint8 }

func (l *Layout) Decode(w uint64) Header { return Header{DstR: uint8(w >> l.Shifts[0])} }

type Flit struct{ Payload uint64 }

func (f *Flit) Header(l Layout) Header { return l.Decode(f.Payload) }
`, 1},
		{"tasp/internal/traffic", `package traffic
` + config + `
type Model struct{ cfg Config }

type Generator struct {
	m   *Model
	seq []uint8
}

func (g *Generator) PacketInto(core int, dst *int) {
	cfg := g.m.cfg
	*dst = core / cfg.Concentration
	g.seq[core]++
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "hot.go"), []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			pkg, err := analysis.LoadFixtureDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor(tc.pkg))
			if err != nil {
				t.Fatal(err)
			}
			copies := 0
			for _, d := range diags {
				if d.Analyzer == "hotcopy" {
					copies++
				}
			}
			if copies != tc.want {
				t.Errorf("%d hotcopy findings, want %d; got %v", copies, tc.want, diags)
			}
		})
	}
}

// TestSeededRegressionCampaign plants the campaign engine's canonical
// contract violations — a per-point allocation inside the worker loop and a
// writer-cursor mutation outside writer.go — in a campaign-shaped package
// and proves the shipped internal/campaign configuration flags both. The
// worker loop's 0 allocs/point contract is what makes thousand-point sweeps
// run at arena speed; a make() in the loop would silently cost a heap
// allocation per grid point.
func TestSeededRegressionCampaign(t *testing.T) {
	dir := t.TempDir()
	src := `package campaign

type Record struct {
	line []byte
}

type writer struct {
	next    int
	written int
}

func worker(recs []Record, results chan<- []byte) {
	for i := range recs {
		buf := make([]byte, 0, 256)
		buf = append(buf, recs[i].line...)
		results <- buf
	}
}

// commitDirect lives outside writer.go, so advancing the cursor here must
// be flagged even though it compiles fine.
func (w *writer) commitDirect() {
	w.next++
	w.written = w.next
}
`
	if err := os.WriteFile(filepath.Join(dir, "run.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/campaign"))
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["hotalloc"] == 0 {
		t.Errorf("per-point allocation in the worker loop not flagged by hotalloc; got %v", diags)
	}
	if byAnalyzer["telemetrysafe"] == 0 {
		t.Errorf("writer cursor mutation outside writer.go not flagged by telemetrysafe; got %v", diags)
	}
}

func TestSuiteFor(t *testing.T) {
	if got := analysis.SuiteFor("tasp/internal/noc"); len(got) != 5 {
		t.Errorf("internal/noc suite has %d analyzers, want 5 (detrange, detsource, hotalloc, hotcopy, telemetrysafe)", len(got))
	}
	if got := analysis.SuiteFor("tasp/internal/campaign"); len(got) != 4 {
		t.Errorf("internal/campaign suite has %d analyzers, want 4 (detrange, detsource, hotalloc, telemetrysafe)", len(got))
	}
	for _, pkg := range []string{"tasp/internal/flit", "tasp/internal/traffic"} {
		if got := analysis.SuiteFor(pkg); len(got) != 3 {
			t.Errorf("%s suite has %d analyzers, want 3 (detrange, detsource, hotcopy)", pkg, len(got))
		}
	}
	if got := analysis.SuiteFor("tasp/internal/exp"); len(got) != 2 {
		t.Errorf("non-noc sim package suite has %d analyzers, want 2 (detrange, detsource)", len(got))
	}
	if got := analysis.SuiteFor("fmt"); got != nil {
		t.Errorf("non-module package got a suite: %v", got)
	}
}

// TestLoadModulePackage smoke-tests the go list -export loader against a
// real module package (the smallest one), end to end through type checking.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./internal/xrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "tasp/internal/xrand" {
		t.Errorf("import path %q", p.ImportPath)
	}
	if p.Types == nil || p.TypesInfo == nil || len(p.Syntax) == 0 {
		t.Error("package loaded without types or syntax")
	}
}
