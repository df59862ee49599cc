package exp

import (
	"fmt"
	"sort"

	"tasp/internal/noc"
	"tasp/internal/traffic"
)

// Figure1 reproduces the three traffic-distribution views of Figure 1 for a
// benchmark on the 64-core concentrated mesh: (a) the source-router x
// destination-router request matrix, (b) the per-router geographic source
// hot spots, and (c) the percentage of traffic crossing each link under XY
// routing.
type Figure1 struct {
	Benchmark string
	Platform  noc.Config
	// Matrix[s][d] is the relative request weight from router s to d
	// (source intensity folded in, as in the paper's packet counts).
	Matrix [][]float64
	// RouterTotals[r] is router r's share of all generated requests.
	RouterTotals []float64
	// Links are the platform's directed links, indexed by link id.
	Links []noc.LinkSpec
	// LinkShare[id] is link id's fraction of all link traversals.
	LinkShare []float64
}

// RunFigure1 builds the distributions for one benchmark.
func RunFigure1(bench string, cfg noc.Config) (*Figure1, error) {
	m, err := traffic.Benchmark(bench, cfg)
	if err != nil {
		return nil, err
	}
	R := cfg.Routers()
	out := &Figure1{Benchmark: bench, Platform: cfg, Matrix: make([][]float64, R)}
	total := 0.0
	for s := 0; s < R; s++ {
		out.Matrix[s] = make([]float64, R)
		for d := 0; d < R; d++ {
			w := m.Matrix[s][d] * m.Intensity[s]
			out.Matrix[s][d] = w
			total += w
		}
	}
	out.RouterTotals = make([]float64, R)
	for s := 0; s < R; s++ {
		rowSum := 0.0
		for d := 0; d < R; d++ {
			out.Matrix[s][d] /= total
			rowSum += out.Matrix[s][d]
		}
		out.RouterTotals[s] = rowSum
	}
	net, err := noc.New(cfg)
	if err != nil {
		return nil, err
	}
	out.Links = cfg.Topology().Links()
	out.LinkShare = traffic.LinkLoadsWhere(m, net.DefaultRoute(), net.LinkSlice(), -1, -1)
	return out, nil
}

// ShareBetween returns the fraction of link traversals from router from to
// router to, summed over every link joining the two (a torus 2 routers
// wide joins a pair twice).
func (f *Figure1) ShareBetween(from, to int) float64 {
	sum := 0.0
	for id, l := range f.Links {
		if l.From == from && l.To == to {
			sum += f.LinkShare[id]
		}
	}
	return sum
}

// platformLabel describes the substrate for table titles ("4x4 mesh,
// conc. 4", "16-router ring, conc. 4").
func platformLabel(cfg noc.Config) string {
	if cfg.TopoName() == "ring" {
		return fmt.Sprintf("%d-router ring, conc. %d", cfg.Routers(), cfg.Concentration)
	}
	return fmt.Sprintf("%dx%d %s, conc. %d", cfg.Width, cfg.Height, cfg.TopoName(), cfg.Concentration)
}

// routeLabel names the default routing rule of the substrate.
func routeLabel(cfg noc.Config) string {
	if cfg.TopoName() == "ring" {
		return "shortest-direction routing"
	}
	return "XY routing"
}

// MatrixTable renders Figure 1(a).
func (f *Figure1) MatrixTable() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 1(a): %s source->destination request shares (%s)", f.Benchmark, platformLabel(f.Platform)),
		Columns: []string{"src\\dst"},
	}
	for d := range f.Matrix {
		t.Columns = append(t.Columns, fmt.Sprintf("r%d", d))
	}
	for s, row := range f.Matrix {
		cells := []string{fmt.Sprintf("r%d", s)}
		for _, w := range row {
			cells = append(cells, f4(w))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// HotspotTable renders Figure 1(b) as a geographic grid.
func (f *Figure1) HotspotTable(cfg noc.Config) Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 1(b): %s per-router source shares (geographic layout)", f.Benchmark),
		Columns: []string{"y\\x"},
	}
	for x := 0; x < cfg.Width; x++ {
		t.Columns = append(t.Columns, fmt.Sprintf("x=%d", x))
	}
	for y := cfg.Height - 1; y >= 0; y-- {
		cells := []string{fmt.Sprintf("y=%d", y)}
		for x := 0; x < cfg.Width; x++ {
			cells = append(cells, pct(f.RouterTotals[cfg.RouterAt(x, y)]))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// LinkTable renders Figure 1(c), hottest links first.
func (f *Figure1) LinkTable() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 1(c): %s per-link traffic shares under %s", f.Benchmark, routeLabel(f.Platform)),
		Columns: []string{"link", "share"},
	}
	type kv struct {
		k string
		v float64
	}
	var all []kv
	for id, v := range f.LinkShare {
		if v > 0 { // links no flow crosses are not listed
			all = append(all, kv{fmt.Sprintf("%d->%d", f.Links[id].From, f.Links[id].To), v})
		}
	}
	// Hottest first, stable tie-break by name.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	for _, e := range all {
		t.Rows = append(t.Rows, []string{e.k, pct(e.v)})
	}
	t.Notes = append(t.Notes,
		"traffic localises around the primary router and diminishes with distance (Section III-A)")
	return t
}
