package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: its name, unit, which direction is better,
// and the regression bound as a share of the parent's median (0 for the
// simulated metrics, which must repeat exactly).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the host metrics every workload reports from its untraced
// runs; BENCHMARK.json lists the same set. The bounds sit above the
// run-to-run spread measured on a shared 2-vCPU host, whose speed drifts
// by tens of percent within minutes (README.md); no timing bound is larger
// than setup_s's, a few milliseconds on the small grids.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "points_per_s", Unit: "points/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// simulated are the outcome metrics read from the program's own output.
// They are deterministic per seed, so any change between two commits is
// flagged rather than bounded. The detection metrics exist only on the
// workloads that run a detector (sweep and secure).
var simulated = []metricDef{
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "detect_frac", Unit: "ratio", Better: "higher"},
	{Name: "false_convict_frac", Unit: "ratio", Better: "lower"},
	{Name: "detect_cycles_p50", Unit: "cycles", Better: "lower"},
	{Name: "detect_cycles_p90", Unit: "cycles", Better: "lower"},
	{Name: "detect_n", Unit: "count", Better: "higher"},
}

// perLayer are the traced run's metrics, named by module. A layer a
// workload does not exercise reads 0 there.
var perLayer = append([]metricDef{
	{Name: "core.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "core.point_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.point_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "core.point_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.wire_ns", Unit: "ns", Better: "lower"},
	{Name: "core.wire_calls_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.wire_nack_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.wire_obfuscated_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.wire_swallow_frac", Unit: "ratio", Better: "lower"},
	{Name: "noc.step_ns", Unit: "ns", Better: "lower"},
	{Name: "noc.step_self_ns", Unit: "ns", Better: "lower"},
	{Name: "noc.flits_in_flight", Unit: "flits", Better: "lower"},
	{Name: "noc.ns_per_flit_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "noc.inject_refused_frac", Unit: "ratio", Better: "lower"},
	{Name: "noc.telemetry_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.packets_per_cycle", Unit: "count", Better: "higher"},
	{Name: "detect.window_us", Unit: "us", Better: "lower"},
	{Name: "detect.windows_per_point", Unit: "count", Better: "lower"},
	{Name: "locate.new_us", Unit: "us", Better: "lower"},
	{Name: "locate.rank_us", Unit: "us", Better: "lower"},
	{Name: "locate.ranks_per_point", Unit: "count", Better: "lower"},
	{Name: "reroute.apply_us", Unit: "us", Better: "lower"},
	{Name: "reroute.applies_per_point", Unit: "count", Better: "lower"},
	{Name: "campaign.encode_us", Unit: "us", Better: "lower"},
	{Name: "campaign.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.mallocs_per_point", Unit: "count", Better: "lower"},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.clock_ns", Unit: "ns", Better: "lower"},
}, expLayerMetrics()...)

// paperExperiments are the ids of the paper workload's experiments, in
// registry order; each gets an exp.<id>_s layer metric.
var paperExperiments = []string{
	"fig1", "fig2", "table1", "fig9", "table2", "fig8", "fig10", "fig11",
	"fig12", "headline", "ablations", "detectability", "migration",
	"closedloop", "saturation",
}

func expLayerMetrics() []metricDef {
	out := make([]metricDef, len(paperExperiments))
	for i, id := range paperExperiments {
		out[i] = metricDef{Name: "exp." + id + "_s", Unit: "s", Better: "lower"}
	}
	return out
}

// summary is a sample's median and quartiles. The quartiles use the same
// exclusive method as Python's statistics.quantiles(values, n=4), so the
// spread printed here matches what a caller computes from the raw values.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(vals []float64) summary {
	s := summary{N: len(vals), Values: append([]float64(nil), vals...)}
	if len(vals) == 0 {
		return s
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles of an ascending slice by the exclusive method; a single value
// is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
