package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasp/internal/analysis"
)

// TestSeededRegression is the acceptance check for the whole suite: plant
// the two canonical contract violations — a map range over router state and
// a math/rand import — in a noc-shaped package and prove the shipped
// internal/noc analyzer configuration (SuiteFor) turns both into findings,
// together with direct writes of scheduler state (an occupancy mask and an
// NI's injection-refusal record) outside sched.go. If any analyzer
// regressed to silence, introducing this exact code into internal/noc would
// sail through `make lint` and CI.
func TestSeededRegression(t *testing.T) {
	dir := t.TempDir()
	src := `package noc

import "math/rand"

type Router struct {
	occ uint64
}

type NI struct {
	refusedBy uint8
}

type Network struct {
	routers map[int]*Router
	nis     []*NI
}

func (n *Network) Step() {
	for id, r := range n.routers {
		r.occ |= 1 << uint(id%64)
	}
	for _, ni := range n.nis {
		ni.refusedBy = 0
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
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/noc", nil))
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	fields := map[string]bool{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		if d.Analyzer == "telemetrysafe" {
			for _, f := range []string{"Router.occ", "NI.refusedBy"} {
				fields[f] = fields[f] || strings.Contains(d.Message, f)
			}
		}
	}
	if byAnalyzer["detrange"] == 0 {
		t.Errorf("map range over router state not flagged by detrange; got %v", diags)
	}
	if byAnalyzer["detsource"] == 0 {
		t.Errorf("math/rand import not flagged by detsource; got %v", diags)
	}
	for _, f := range []string{"Router.occ", "NI.refusedBy"} {
		if !fields[f] {
			t.Errorf("direct %s mutation outside sched.go not flagged by telemetrysafe; got %v", f, diags)
		}
	}
}

// TestSeededRegressionCleanBaseline is the control: the same shape with the
// violations removed produces zero findings, so the regression test above
// fails for the right reason. It declares every root, field and file the
// shipped policy names, as internal/noc does; one missing is a finding.
func TestSeededRegressionCleanBaseline(t *testing.T) {
	dir := t.TempDir()
	src := `package noc

type routerState struct {
	occ, routedTo, reqVA, deadOut uint64
	inFlits, parked               int
}

type Router struct{ routerState }

type niState struct{ total, refusedBy int }

type NI struct{ niState }

type activeSet struct{ w []uint64 }

type scheduler struct {
	actIn, actOut, actNI          activeSet
	flitsIn, flitsParked, flitsNI int
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

func (n *Network) Inject()  {}
func (n *Network) Run()     {}
func (n *Network) Reset()   {}
func (n *Network) Save()    {}
func (n *Network) Restore() {}

// run gives the roots and NI a user, as the simulator's runner does.
func run(n *Network, _ *NI) {
	n.Step()
	n.Inject()
	n.Run()
	n.Reset()
	n.Save()
	n.Restore()
}
`
	if err := os.WriteFile(filepath.Join(dir, "sched.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.go"), []byte("package noc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	uses := analysis.CollectUses([]*analysis.Package{pkg})
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/noc", uses))
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
			diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor(tc.pkg, nil))
			if err != nil {
				t.Fatal(err)
			}
			// The package declares only some of the shipped roots, so hotcopy
			// also reports the others as naming nothing; count the copies.
			copies := 0
			for _, d := range diags {
				if d.Analyzer == "hotcopy" && strings.Contains(d.Message, " copies ") {
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
// contract violations — a per-point allocation in the worker's record
// callback and a writer-cursor mutation outside writer.go — in a
// campaign-shaped package and proves the shipped internal/campaign
// configuration flags both. The worker's 0 allocs/point contract is what
// makes thousand-point sweeps run at arena speed; a make() in the callback
// would silently cost a heap allocation per grid point.
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

type worker struct {
	rec     Record
	results chan<- []byte
}

func (w *worker) emit(i int) error {
	buf := make([]byte, 0, 256)
	buf = append(buf, w.rec.line...)
	w.results <- buf
	return nil
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
	diags, err := analysis.RunAnalyzers(pkg, analysis.SuiteFor("tasp/internal/campaign", nil))
	if err != nil {
		t.Fatal(err)
	}
	// The package declares only some of what the shipped policy names, so
	// both analyzers also report the rest; look for the planted findings.
	var alloc, cursor bool
	for _, d := range diags {
		alloc = alloc || d.Analyzer == "hotalloc" && strings.Contains(d.Message, "make allocates")
		cursor = cursor || d.Analyzer == "telemetrysafe" && strings.Contains(d.Message, "writer.next")
	}
	if !alloc {
		t.Errorf("per-point allocation in the worker's record callback not flagged by hotalloc; got %v", diags)
	}
	if !cursor {
		t.Errorf("writer cursor mutation outside writer.go not flagged by telemetrysafe; got %v", diags)
	}
}

func TestSuiteFor(t *testing.T) {
	if got := analysis.SuiteFor("tasp/internal/noc", nil); len(got) != 6 {
		t.Errorf("internal/noc suite has %d analyzers, want 6 (detrange, detsource, deadexport, hotalloc, hotcopy, telemetrysafe)", len(got))
	}
	if got := analysis.SuiteFor("tasp/internal/campaign", nil); len(got) != 5 {
		t.Errorf("internal/campaign suite has %d analyzers, want 5 (detrange, detsource, deadexport, hotalloc, telemetrysafe)", len(got))
	}
	for _, pkg := range []string{"tasp/internal/flit", "tasp/internal/traffic"} {
		if got := analysis.SuiteFor(pkg, nil); len(got) != 4 {
			t.Errorf("%s suite has %d analyzers, want 4 (detrange, detsource, deadexport, hotcopy)", pkg, len(got))
		}
	}
	if got := analysis.SuiteFor("tasp/internal/exp", nil); len(got) != 3 {
		t.Errorf("internal sim package suite has %d analyzers, want 3 (detrange, detsource, deadexport)", len(got))
	}
	for _, pkg := range []string{"tasp/cmd/nocsim", "tasp/bench"} {
		if got := analysis.SuiteFor(pkg, nil); len(got) != 2 {
			t.Errorf("%s suite has %d analyzers, want 2 (detrange, detsource)", pkg, len(got))
		}
	}
	if got := analysis.SuiteFor("fmt", nil); got != nil {
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
