package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tasp/internal/core"
	"tasp/internal/exp"
)

// span is one timed region of a traced pass. A coarse call gets a span of
// its own; a per-cycle call site (Step, Transmit, TickInto, Inject) is
// aggregated into one span per point, carrying its call count and the host
// time inside the calls.
type span struct {
	Name    string `json:"name"`
	Point   int    `json:"point"`  // grid index; -1 outside any point
	Parent  int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Calls   int64  `json:"calls"`
	TotalNs int64  `json:"total_ns"`
}

// tracer keeps a traced pass's spans in memory until the pass ends.
type tracer struct {
	clock float64 // calibrated cost of one clock read, ns
	spans []span
}

func (t *tracer) begin(name string, point, parent int) int {
	t.spans = append(t.spans, span{Name: name, Point: point, Parent: parent, Start: nowNs(), Calls: 1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = nowNs()
	s.TotalNs = s.End - s.Start
}

// aggregate records a per-cycle call site's totals as one span.
func (t *tracer) aggregate(name string, point, parent int, start, end int64, tm timed) int {
	t.spans = append(t.spans, span{Name: name, Point: point, Parent: parent, Start: start, End: end, Calls: tm.calls, TotalNs: tm.ns})
	return len(t.spans) - 1
}

// work is the time a span's calls spent in the callee: each timed call's
// window holds one clock read's worth of timing overhead.
func (t *tracer) work(s span) float64 { return float64(s.TotalNs) - float64(s.Calls)*t.clock }

// selfTimes returns each span's self time: its work minus the part of it
// its children cover. A child's calls cost the parent their work plus both
// clock reads of every call.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] = t.work(s)
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.TotalNs) + float64(s.Calls)*t.clock
		}
	}
	return self
}

// layerTotals sums, per span name, the self time, the work, the calls and
// the span count.
type layerTotals struct {
	self, work   float64
	calls, spans int64
}

func (t *tracer) totals() map[string]*layerTotals {
	self := t.selfTimes()
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.self += self[i]
		lt.work += t.work(s)
		lt.calls += s.Calls
		lt.spans++
	}
	return out
}

// coverage is the share of the named roots' time that the self time of
// the spans beneath them accounts for.
func (t *tracer) coverage(root string) float64 {
	self := t.selfTimes()
	under := make([]bool, len(t.spans))
	var wall, covered float64
	for i, s := range t.spans { // parents precede their children
		if s.Parent < 0 {
			if s.Name == root {
				wall += float64(s.TotalNs)
			}
			continue
		}
		p := t.spans[s.Parent]
		under[i] = under[s.Parent] || (p.Parent < 0 && p.Name == root)
		if under[i] {
			covered += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return covered / wall
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		ClockNs float64 `json:"clock_ns"`
		Spans   []span  `json:"spans"`
	}{t.clock, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerReport is one traced pass's report, printed by the child.
type layerReport struct {
	tally
	Layers map[string]float64 `json:"layers"`
}

// tracePass runs one traced pass of a workload in this process and writes
// its spans to <outDir>/<workload>.trace.json. Every per-layer metric is
// present; the go.* ones come from an untraced child and stay 0 here.
func tracePass(w workload, seed uint64, outDir string) (layerReport, error) {
	tr := &tracer{clock: clockCost()}
	r := layerReport{Layers: map[string]float64{}}
	for _, m := range perLayer {
		r.Layers[m.Name] = 0
	}
	var err error
	if w.grid == nil {
		err = tracePaper(tr, seed, &r)
	} else {
		err = traceGrid(tr, w, seed, &r)
	}
	if err != nil {
		return r, err
	}
	r.Layers["trace.clock_ns"] = tr.clock
	return r, tr.write(filepath.Join(outDir, w.name+".trace.json"))
}

// tracePaper times each registry experiment serially, after an untraced
// serial RunAll of the same experiments, whose rendered output every traced
// experiment must reproduce.
func tracePaper(tr *tracer, seed uint64, r *layerReport) error {
	reg := exp.Registry("blackscholes")
	start := nowNs()
	want := renderSections(exp.RunAll(reg, seed, 1))
	untraced := float64(nowNs() - start)

	s := tr.begin("core.setup", -1, -1)
	cfg := core.DefaultExperiment()
	cfg.Warmup, cfg.Measure = 0, 0
	if err := core.NewRunner().RunInto(cfg, &core.Results{}); err != nil {
		return err
	}
	tr.end(s)

	root := tr.begin("paper", -1, -1)
	for i, e := range reg {
		s := tr.begin("exp."+e.ID, -1, root)
		tables, err := e.Run(seed)
		tr.end(s)
		got := renderSections([]exp.Result{{ID: e.ID, Tables: tables, Err: err}})[0]
		r.Attempted++
		switch {
		case err != nil:
			r.fail("%s: %v", e.ID, err)
		case got.text != want[i].text:
			r.fail("%s: traced output differs from the untraced run", e.ID)
		}
	}
	tr.end(root)

	t := tr.totals()
	for _, id := range paperExperiments {
		if lt := t["exp."+id]; lt != nil {
			r.Layers["exp."+id+"_s"] = lt.work / 1e9
		}
	}
	r.Layers["core.setup_ms"] = t["core.setup"].work / 1e6
	r.Layers["trace.coverage_frac"] = tr.coverage("paper")
	r.Layers["trace.overhead_frac"] = float64(tr.spans[root].TotalNs)/untraced - 1
	return nil
}

// traceGrid replays the first-seed point of every distinct platform of a
// grid, serially on this goroutine. Each point first runs untraced through
// core.Runner.RunInto, bracketed by zero-cycle runs that time the cold
// platform set-up and the warm per-point overhead; the replay must then
// reproduce RunInto's counters and record bytes exactly.
func traceGrid(tr *tracer, w workload, seed uint64, r *layerReport) error {
	spec, err := w.spec(seed)
	if err != nil {
		return err
	}
	s := tr.begin("campaign.validate", -1, -1)
	err = spec.Validate()
	tr.end(s)
	if err != nil {
		return err
	}
	scenarios := spec.Expand()
	runner := core.NewRunner()
	ref, scratch := &core.Results{}, &core.Results{}
	rp := newReplayer(tr)
	for _, i := range platformPoints(scenarios) {
		rec, cfg, err := identity(i, scenarios[i])
		if err != nil {
			return err
		}
		zero := cfg
		zero.Warmup, zero.Measure = 0, 0
		for _, run := range []struct {
			name string
			cfg  core.ExperimentConfig
			res  *core.Results
		}{{"core.setup", zero, scratch}, {"core.run_into", cfg, ref}, {"core.point_overhead", zero, scratch}} {
			s := tr.begin(run.name, i, -1)
			err := runner.RunInto(run.cfg, run.res)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
		}
		r.Attempted++
		got, err := rp.point(i, cfg, ref)
		if err != nil {
			r.fail("point %d: %v", i, err)
			continue
		}
		if got.Final != ref.Final {
			r.fail("point %d: replayed counters differ from RunInto's", i)
			continue
		}
		s := tr.begin("campaign.encode", i, -1)
		gotRec := rec
		gotRec.Fill(got)
		gotLine := gotRec.AppendJSONL(nil)
		tr.end(s)
		refRec := rec
		refRec.Fill(ref)
		if string(gotLine) != string(refRec.AppendJSONL(nil)) {
			r.fail("point %d: replayed record differs from RunInto's", i)
		}
	}
	gridLayers(tr, rp, r.Layers)
	return nil
}

// gridLayers derives the per-layer metrics of a replayed grid from the
// spans' totals and the replay's counts.
func gridLayers(tr *tracer, rp *replayer, out map[string]float64) {
	t := tr.totals()
	get := func(name string) layerTotals {
		if lt := t[name]; lt != nil {
			return *lt
		}
		return layerTotals{}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := &rp.total
	cycles, points := float64(n.cycles), float64(get("replay").spans)
	wire, step, tick, inject := get("core.wire"), get("noc.step"), get("traffic.tick"), get("noc.inject")
	perSpan := func(name string, unit float64) float64 { // mean self time per span
		lt := get(name)
		return ratio(lt.self, float64(lt.spans)) / unit
	}
	var pointMs []float64
	for _, s := range tr.spans {
		if s.Name == "core.run_into" {
			pointMs = append(pointMs, tr.work(s)/1e6)
		}
	}
	sort.Float64s(pointMs)
	out["core.point_ms_p50"] = percentile(pointMs, 50)
	out["core.point_ms_p90"] = percentile(pointMs, 90)
	out["core.setup_ms"] = perSpan("core.setup", 1e6)
	out["core.point_overhead_us"] = perSpan("core.point_overhead", 1e3)
	out["core.wire_ns"] = ratio(wire.self, float64(wire.calls))
	out["core.wire_calls_per_cycle"] = ratio(float64(wire.calls), cycles)
	out["core.wire_nack_frac"] = ratio(float64(n.nacks), float64(wire.calls))
	out["core.wire_obfuscated_frac"] = ratio(float64(n.obfuscated), float64(wire.calls))
	out["core.wire_swallow_frac"] = ratio(float64(n.swallows), float64(wire.calls))
	out["noc.step_ns"] = ratio(step.self+wire.work, cycles)
	out["noc.step_self_ns"] = ratio(step.self, cycles)
	out["noc.flits_in_flight"] = ratio(float64(n.flitsSeen), float64(n.samples))
	out["noc.ns_per_flit_cycle"] = ratio(out["noc.step_self_ns"], out["noc.flits_in_flight"])
	out["noc.inject_ns"] = ratio(inject.self, float64(inject.calls))
	out["noc.inject_refused_frac"] = ratio(float64(n.refused), float64(inject.calls))
	out["noc.telemetry_ns"] = perSpan("noc.telemetry", 1)
	out["traffic.tick_ns"] = ratio(tick.self, cycles)
	out["traffic.packets_per_cycle"] = ratio(float64(inject.calls), cycles)
	out["detect.window_us"] = perSpan("detect.window", 1e3)
	out["detect.windows_per_point"] = ratio(float64(get("detect.window").spans), points)
	out["locate.new_us"] = perSpan("locate.new", 1e3)
	out["locate.rank_us"] = perSpan("locate.rank", 1e3)
	out["locate.ranks_per_point"] = ratio(float64(get("locate.rank").spans), points)
	out["reroute.apply_us"] = perSpan("reroute.apply", 1e3)
	out["reroute.applies_per_point"] = ratio(float64(get("reroute.apply").spans), points)
	out["campaign.encode_us"] = perSpan("campaign.encode", 1e3)
	out["campaign.validate_ms"] = perSpan("campaign.validate", 1e6)
	out["trace.coverage_frac"] = tr.coverage("replay")
	if ref := get("core.run_into").work; ref > 0 {
		out["trace.overhead_frac"] = get("replay").work/ref - 1
	}
}
