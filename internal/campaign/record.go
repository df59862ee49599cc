package campaign

import (
	"slices"
	"strconv"

	"tasp/internal/core"
	"tasp/internal/detect"
)

// Record is one campaign point's flat result row — the scenario identity
// plus the scalar outcomes the aggregator consumes. It omits the bulky time
// series (Samples, SuspectTrace); Fill reduces them to the scalars the
// presets print instead (blocked routers at the last sample, t_localize).
type Record struct {
	Index int `json:"index"`

	Topology   string `json:"topology"`
	Width      int    `json:"width"`
	Height     int    `json:"height"`
	Benchmark  string `json:"benchmark"`
	Attack     string `json:"attack"`
	Mode       string `json:"mode"` // the trojan family (flip, drop, ...); "none" for attack none
	Mitigation string `json:"mitigation"`
	Detector   string `json:"detector"` // "deficit" or "stock" (Scenario.Detector)
	Seed       uint64 `json:"seed"`

	InfectedLinks   []int   `json:"infected_links"` // reused across points in the worker loop
	Throughput      float64 `json:"throughput"`
	AvgLatency      float64 `json:"avg_latency"`
	P99Latency      uint64  `json:"p99_latency"`
	Delivered       uint64  `json:"delivered"`
	VictimDelivered uint64  `json:"victim_delivered"`
	HTMatches       uint64  `json:"ht_matches"`
	HTInjections    uint64  `json:"ht_injections"`
	Obfuscated      uint64  `json:"obfuscated"`
	StallCycles     uint64  `json:"stall_cycles"`
	BISTScans       uint64  `json:"bist_scans"`
	FirstTrojanAt   uint64  `json:"first_trojan_at"`
	ReroutedAt      uint64  `json:"rerouted_at"`
	FlaggedLinks    int     `json:"flagged_links"`
	TrojanLinks     int     `json:"trojan_links"`
	BlockedRouters  int     `json:"blocked_routers"`
	Routers         int     `json:"routers"`

	// Flit-loss split by cause (noc.Counters): trojan-induced in-flight
	// swallows and their orphaned bodies vs mitigation-induced losses.
	DroppedInFlight uint64 `json:"dropped_inflight"`
	DroppedRetrans  uint64 `json:"dropped_retrans"`
	DroppedOrphan   uint64 `json:"dropped_orphan"`
	DroppedReconfig uint64 `json:"dropped_reconfig"`
	// AckFlagged counts links the secure-ack monitor convicted as droppers
	// or misrouters (0 on runs without SecureAck); RecoveredAt is the cycle
	// conviction-driven recovery first rerouted around a convicted link
	// (0 on runs without Recover, or when nothing was convicted).
	AckFlagged  int    `json:"ack_flagged"`
	RecoveredAt uint64 `json:"recovered_at"`

	// Localization outcomes (Locate runs; -1 link ids otherwise): the final
	// ranking's rank-1 link and its confidence (normalized margin over
	// rank-2), the telemetry-only ranking's rank-1 link, and TLocalize, the
	// cycles from attack enable until the per-sample rank-1 verdict settles
	// inside the infected set for the rest of the run (-1 = never).
	Rank1Link          int     `json:"rank1_link"`
	Rank1Confidence    float64 `json:"rank1_confidence"`
	Rank1TelemetryLink int     `json:"rank1_telemetry_link"`
	TLocalize          int64   `json:"t_localize"`
	// InfectedConvicted counts the infected links the secure-ack monitor
	// convicted; ConvictingChannel is the evidence channel of the last of
	// them in infected-link order ("none" when none was convicted).
	InfectedConvicted int    `json:"infected_convicted"`
	ConvictingChannel string `json:"convicting_channel"`
	// PostRecoveryThroughput is delivered packets per cycle from RecoveredAt
	// to the end of the run (0 when recovery never fired).
	PostRecoveryThroughput float64 `json:"post_recovery_throughput"`
}

// identify sets the identity fields of grid point i, as lowered to cfg.
func (r *Record) identify(i int, sc *Scenario, cfg *core.ExperimentConfig) {
	r.Index = i
	r.Topology = cfg.Noc.Topo
	if r.Topology == "" {
		r.Topology = "mesh"
	}
	r.Width, r.Height = cfg.Noc.Width, cfg.Noc.Height
	r.Benchmark = cfg.Benchmark
	r.Attack = sc.Attack.Name()
	r.Mode = "none"
	if cfg.Attack.Enabled {
		r.Mode = cfg.Attack.Kind.String()
	}
	r.Mitigation = cfg.Mitigation.String()
	r.Detector = "deficit"
	if cfg.AckDeficitRatio < 0 {
		r.Detector = "stock"
	}
	r.Seed = sc.Seed
}

// Fill populates the outcome fields from a run's results (the scenario
// identity fields are the caller's). It must stay allocation-free: it runs
// once per point inside the worker loop.
func (r *Record) Fill(res *core.Results) {
	//nocvet:allowalloc amortized high-water growth of the worker's reused record
	r.InfectedLinks = append(r.InfectedLinks[:0], res.InfectedLinks...)
	r.Throughput = res.Throughput
	r.AvgLatency = res.AvgLatency
	r.P99Latency = res.Latency.Percentile(99)
	r.Delivered = res.Final.DeliveredPackets
	r.VictimDelivered = res.VictimDelivered
	r.HTMatches = res.HTMatches
	r.HTInjections = res.HTInjections
	r.Obfuscated = res.Obfuscated
	r.StallCycles = res.StallCycles
	r.BISTScans = res.BISTScans
	r.FirstTrojanAt = res.FirstTrojanAt
	r.ReroutedAt = res.ReroutedAt
	r.FlaggedLinks = len(res.Detections)
	r.TrojanLinks = 0
	for _, cl := range res.Detections { //nocvet:orderfree commutative count
		if cl == detect.Trojan {
			r.TrojanLinks++
		}
	}
	r.Routers = res.Config.Noc.Routers()
	r.BlockedRouters = 0
	if n := len(res.Samples); n > 0 {
		r.BlockedRouters = res.Samples[n-1].BlockedRouters
	}
	r.DroppedInFlight = res.Final.DroppedInFlight
	r.DroppedRetrans = res.Final.DroppedRetrans
	r.DroppedOrphan = res.Final.DroppedOrphan
	r.DroppedReconfig = res.Final.DroppedReconfig
	r.AckFlagged = 0
	for _, c := range res.AckVerdicts { //nocvet:orderfree commutative count
		if c == detect.AckDropper || c == detect.AckMisroute {
			r.AckFlagged++
		}
	}
	r.RecoveredAt = res.RecoveredAt
	r.Rank1Link, r.Rank1Confidence = -1, 0
	if len(res.Suspects) > 0 {
		r.Rank1Link, r.Rank1Confidence = res.Suspects[0].LinkID, res.Suspects[0].Confidence
	}
	r.Rank1TelemetryLink = -1
	if len(res.SuspectsTelemetry) > 0 {
		r.Rank1TelemetryLink = res.SuspectsTelemetry[0].LinkID
	}
	r.TLocalize = -1
	//nocvet:allowalloc slices.Contains is generic over int: nothing is boxed
	for i := len(res.SuspectTrace) - 1; i >= 0 && slices.Contains(res.InfectedLinks, res.SuspectTrace[i].LinkID); i-- {
		r.TLocalize = int64(res.SuspectTrace[i].Cycle - res.Config.EnableCycle())
	}
	r.InfectedConvicted, r.ConvictingChannel = 0, detect.ChannelNone.String()
	for _, id := range res.InfectedLinks {
		if c := res.AckVerdicts[id]; c == detect.AckDropper || c == detect.AckMisroute {
			r.InfectedConvicted++
			r.ConvictingChannel = res.AckChannels[id].String()
		}
	}
	r.PostRecoveryThroughput = 0
	if end := uint64(res.Config.Warmup + res.Config.Measure); res.RecoveredAt > 0 && res.RecoveredAt < end {
		r.PostRecoveryThroughput = float64(res.Final.DeliveredPackets-res.AtRecover.DeliveredPackets) / float64(end-res.RecoveredAt)
	}
}

// appendJSONString appends a JSON string. Campaign identity strings are
// plain names (topologies, benchmarks, attack kinds), so only the escapes
// that can actually occur in Go's %v renderings are handled.
//
//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendInt, appendUint, appendFloat and appendString append one
// `,"name":value` field.
//
//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendInt(dst []byte, name string, v int64) []byte {
	return strconv.AppendInt(appendKey(dst, name), v, 10)
}

//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendUint(dst []byte, name string, v uint64) []byte {
	return strconv.AppendUint(appendKey(dst, name), v, 10)
}

//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendFloat(dst []byte, name string, v float64) []byte {
	return strconv.AppendFloat(appendKey(dst, name), v, 'g', -1, 64)
}

//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendString(dst []byte, name, v string) []byte {
	return appendJSONString(appendKey(dst, name), v)
}

//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func appendKey(dst []byte, name string) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// AppendJSONL appends the record as one JSON line (with trailing newline).
// The encoding is hand-rolled over strconv so the worker loop stays
// allocation-free once dst has grown to line size; the field names and
// order match the struct tags, so encoding/json can read the lines back.
//
//nocvet:allowalloc appends into the recycled line buffer; 0 allocs/op steady state pinned by BenchmarkCampaignPoint
func (r *Record) AppendJSONL(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(r.Index), 10)
	dst = appendString(dst, "topology", r.Topology)
	dst = appendInt(dst, "width", int64(r.Width))
	dst = appendInt(dst, "height", int64(r.Height))
	dst = appendString(dst, "benchmark", r.Benchmark)
	dst = appendString(dst, "attack", r.Attack)
	dst = appendString(dst, "mode", r.Mode)
	dst = appendString(dst, "mitigation", r.Mitigation)
	dst = appendString(dst, "detector", r.Detector)
	dst = appendUint(dst, "seed", r.Seed)
	dst = append(dst, `,"infected_links":[`...)
	for i, id := range r.InfectedLinks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	dst = append(dst, ']')
	dst = appendFloat(dst, "throughput", r.Throughput)
	dst = appendFloat(dst, "avg_latency", r.AvgLatency)
	dst = appendUint(dst, "p99_latency", r.P99Latency)
	dst = appendUint(dst, "delivered", r.Delivered)
	dst = appendUint(dst, "victim_delivered", r.VictimDelivered)
	dst = appendUint(dst, "ht_matches", r.HTMatches)
	dst = appendUint(dst, "ht_injections", r.HTInjections)
	dst = appendUint(dst, "obfuscated", r.Obfuscated)
	dst = appendUint(dst, "stall_cycles", r.StallCycles)
	dst = appendUint(dst, "bist_scans", r.BISTScans)
	dst = appendUint(dst, "first_trojan_at", r.FirstTrojanAt)
	dst = appendUint(dst, "rerouted_at", r.ReroutedAt)
	dst = appendInt(dst, "flagged_links", int64(r.FlaggedLinks))
	dst = appendInt(dst, "trojan_links", int64(r.TrojanLinks))
	dst = appendInt(dst, "blocked_routers", int64(r.BlockedRouters))
	dst = appendInt(dst, "routers", int64(r.Routers))
	dst = appendUint(dst, "dropped_inflight", r.DroppedInFlight)
	dst = appendUint(dst, "dropped_retrans", r.DroppedRetrans)
	dst = appendUint(dst, "dropped_orphan", r.DroppedOrphan)
	dst = appendUint(dst, "dropped_reconfig", r.DroppedReconfig)
	dst = appendInt(dst, "ack_flagged", int64(r.AckFlagged))
	dst = appendUint(dst, "recovered_at", r.RecoveredAt)
	dst = appendInt(dst, "rank1_link", int64(r.Rank1Link))
	dst = appendFloat(dst, "rank1_confidence", r.Rank1Confidence)
	dst = appendInt(dst, "rank1_telemetry_link", int64(r.Rank1TelemetryLink))
	dst = appendInt(dst, "t_localize", r.TLocalize)
	dst = appendInt(dst, "infected_convicted", int64(r.InfectedConvicted))
	dst = appendString(dst, "convicting_channel", r.ConvictingChannel)
	dst = appendFloat(dst, "post_recovery_throughput", r.PostRecoveryThroughput)
	return append(dst, '}', '\n')
}
