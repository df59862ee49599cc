// Package locate is the network-level DoS localization layer: it fuses
// per-link threat-detector verdicts, blocked-port telemetry sampled over
// time, and topology-structural priors into a ranked suspect-link set with a
// confidence score — pinpointing the infected link(s) behind a saturation
// outage rather than merely classifying each link in isolation.
//
// The discriminator is the saturation tree's growth direction. A trojan
// wedges its own link first: endless NACK/retransmission cycles stop the
// driving output port's progress clock. Back-pressure then starves credits
// upstream, so the ports feeding the infected router block next, and the
// blockage fans upstream against the traffic flow — victims appear
// downstream-first (starved of deliveries), while the *blocked-port* front
// grows upstream from the root. A link that (i) blocked earliest, (ii) has
// its upstream feeders blocking strictly after it, (iii) NACKs a large
// fraction of its traversals or carries a detector verdict, and (iv) sits
// where the topology concentrates routes (high fan-in, bisection or
// wraparound membership) is the root of the tree.
package locate

import (
	"cmp"
	"slices"
	"sort"

	"tasp/internal/detect"
	"tasp/internal/noc"
)

// Priors are the topology-structural attack priors of every directed link,
// computed once per substrate from the Topology interface alone.
type Priors struct {
	// FanIn is the fraction of all (src, dst) default routes that traverse
	// the link, normalized so the most-traversed link scores 1. Attackers
	// place trojans where the route table concentrates flows (the paper's
	// Section III-A link-selection analysis), so high fan-in is prior
	// evidence.
	FanIn []float64
	// Bisection marks links crossing the id-halving cut (routers < R/2 vs
	// the rest). On a row-major mesh/torus this is the horizontal midline,
	// on the ring the two half-way crossings — the narrow waists every
	// cross-half flow must use.
	Bisection []bool
	// Wraparound marks dateline links (torus wraparound pairs, the ring's
	// modulo closure): they aggregate a whole dimension's shorter-way-around
	// traffic, and their dateline VC discipline makes saturation there
	// especially contagious.
	Wraparound []bool
}

// ComputePriors derives the structural priors for one substrate.
func ComputePriors(t noc.Topology, links []noc.LinkInfo) Priors {
	p := Priors{
		FanIn:      make([]float64, len(links)),
		Bisection:  make([]bool, len(links)),
		Wraparound: make([]bool, len(links)),
	}
	R := t.Routers()

	// linkAt[(router, port)] -> link id, for route walking.
	linkAt := make(map[[2]int]int, len(links))
	for _, l := range links {
		linkAt[[2]int{l.From, l.FromPort}] = l.ID
	}

	// Route-table fan-in: walk every (src, dst) default route and count the
	// links it crosses. Hop-bounded so a malformed route table cannot loop.
	counts := make([]int, len(links))
	maxHops := R + 1
	for src := 0; src < R; src++ {
		for dst := 0; dst < R; dst++ {
			if src == dst {
				continue
			}
			r := src
			for hop := 0; r != dst && hop < maxHops; hop++ {
				id, ok := linkAt[[2]int{r, t.Route(r, dst)}]
				if !ok {
					break // route points at an unwired port
				}
				counts[id]++
				r = links[id].To
			}
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, c := range counts {
		if max > 0 {
			p.FanIn[i] = float64(c) / float64(max)
		}
	}

	// Bisection membership: the id-halving cut.
	for _, l := range links {
		p.Bisection[l.ID] = (l.From < R/2) != (l.To < R/2)
	}

	// Wraparound detection, topology-agnostic: group the links by port name
	// (direction) and find each group's modal id stride To-From — the
	// regular neighbour offset. Links deviating from the mode are the
	// dimension's closure (torus wraparound, ring modulo link): e.g. east on
	// a 4x4 torus is +1 twelve times and -3 four times. Ties break toward
	// the smaller |stride|, since closures jump farther than neighbours.
	byDir := map[string][]int{}
	for _, l := range links {
		byDir[l.FromName] = append(byDir[l.FromName], l.ID)
	}
	for _, ids := range byDir { //nocvet:orderfree each direction writes only its own links' Wraparound entries
		strides := map[int]int{}
		for _, id := range ids {
			strides[links[id].To-links[id].From]++
		}
		// Scan the strides in sorted order: on a count tie with equal
		// |stride| (e.g. +2 and -2 seen equally often) the winner would
		// otherwise depend on map iteration order and the wraparound prior
		// would differ run to run.
		ss := make([]int, 0, len(strides))
		for s := range strides { //nocvet:orderfree keys are sorted before use
			ss = append(ss, s)
		}
		sort.Ints(ss)
		mode, best := 0, -1
		for _, s := range ss {
			if c := strides[s]; c > best || (c == best && iabs(s) < iabs(mode)) {
				mode, best = s, c
			}
		}
		if len(strides) < 2 {
			continue // uniform direction (mesh): no closure
		}
		for _, id := range ids {
			if links[id].To-links[id].From != mode {
				p.Wraparound[links[id].ID] = true
			}
		}
	}
	return p
}

// LinkEvidence is the detector-side evidence of one link, read from its
// receiving endpoint's threat detector and the driving port's link-level
// counters.
type LinkEvidence struct {
	// Class is the detector's current verdict (Healthy when the link has no
	// detector, e.g. unmitigated baselines).
	Class detect.Classification
	// Retransmissions counts NACKed traversal attempts on the link,
	// FlitsSent the successful ones — the NACK ratio is evidence the
	// localization can use even when no detector hardware is deployed.
	Retransmissions uint64
	FlitsSent       uint64
	// Ack is the secure-ack monitor's verdict (AckHealthy when no monitor
	// runs); AckGap is the cumulative sent-minus-received count and
	// RouteViolations the non-conforming arrivals on the link. This is the
	// evidence channel for the quiet attack families — drop and misroute
	// trojans raise no NACKs and leave Class at Healthy forever.
	Ack             detect.AckClass
	AckGap          uint64
	RouteViolations uint64
}

// Weights blends the four score components. They should sum to ~1 so scores
// stay comparable across configurations.
type Weights struct {
	Detector  float64 // detector verdict + NACK ratio
	Earliness float64 // how early the link's port blocked
	Growth    float64 // saturation-tree growth direction (feeders block later)
	Prior     float64 // structural priors (fan-in, bisection, wraparound)
}

// DefaultWeights is the blend used by the experiment harness: detector
// evidence dominates when present, telemetry carries otherwise.
func DefaultWeights() Weights {
	return Weights{Detector: 0.45, Earliness: 0.2, Growth: 0.2, Prior: 0.15}
}

// TelemetryWeights zeroes the detector component: localization from
// blocked-port telemetry and structure alone, the ablation the ROADMAP item
// asks for ("from blocked-port telemetry alone").
func TelemetryWeights() Weights {
	return Weights{Detector: 0, Earliness: 0.35, Growth: 0.35, Prior: 0.3}
}

// Suspect is one entry of the ranked verdict.
type Suspect struct {
	LinkID int
	// Score is the fused suspicion in [0, 1].
	Score float64
	// Confidence is the margin to the next-ranked suspect, normalized by
	// the top score — rank-1's Confidence is the localization confidence.
	Confidence float64
	// Component scores, for explainability (each in [0, 1]).
	Det, Early, Growth, Prior float64
}

// TraceSample is one point of the localization time series: the rank-1
// verdict at a sample cycle.
type TraceSample struct {
	Cycle      uint64
	LinkID     int
	Score      float64
	Confidence float64
}

// Engine ranks suspect links for one network. It precomputes the structural
// priors and the upstream feeder sets; Rank may be called repeatedly as
// telemetry accumulates.
type Engine struct {
	links   []noc.LinkInfo
	priors  Priors
	feeders [][]int // link id -> ids of links into links[id].From (reverse link excluded)
}

// New builds an engine for the given substrate.
func New(t noc.Topology, links []noc.LinkInfo) *Engine {
	e := &Engine{
		links:   append([]noc.LinkInfo(nil), links...),
		priors:  ComputePriors(t, links),
		feeders: make([][]int, len(links)),
	}
	for _, l := range links {
		for _, f := range links {
			if f.To != l.From {
				continue
			}
			if f.From == l.To && f.To == l.From {
				continue // the reverse link: its traffic cannot feed l's flows
			}
			e.feeders[l.ID] = append(e.feeders[l.ID], f.ID)
		}
	}
	return e
}

// Rank fuses the current telemetry and evidence under DefaultWeights into a
// fresh slice the caller may retain. tel may be nil (no telemetry: detector
// evidence and priors carry); ev may be nil or sparse (missing links read as
// Healthy with zero counters).
func (e *Engine) Rank(tel *noc.LinkTelemetry, ev map[int]LinkEvidence) []Suspect {
	return e.RankWeighted(DefaultWeights(), tel, ev)
}

// classScore maps a detector verdict to suspicion.
func classScore(c detect.Classification) float64 {
	switch c {
	case detect.Trojan:
		return 1.0
	case detect.Suspect:
		return 0.85
	case detect.Permanent:
		return 0.6
	case detect.Transient:
		return 0.2
	default:
		return 0
	}
}

// ackScore maps a secure-ack verdict to suspicion.
func ackScore(c detect.AckClass) float64 {
	switch c {
	case detect.AckDropper, detect.AckMisroute:
		return 1.0
	case detect.AckSuspect:
		return 0.6
	default:
		return 0
	}
}

// RankWeighted fuses with an explicit blend into a fresh slice. The result
// is sorted by descending score, ties broken by link id for determinism.
func (e *Engine) RankWeighted(w Weights, tel *noc.LinkTelemetry, ev map[int]LinkEvidence) []Suspect {
	return e.RankWeightedInto(nil, w, tel, ev)
}

// RankWeightedInto is RankWeighted ranking into the caller's storage: dst's
// backing array is reused when it can hold every link and grown otherwise,
// and the ranking is returned. Callers that rank repeatedly (once per
// telemetry sample) pass the previous result back to stay allocation-free.
func (e *Engine) RankWeightedInto(dst []Suspect, w Weights, tel *noc.LinkTelemetry, ev map[int]LinkEvidence) []Suspect {
	n := len(e.links)
	if cap(dst) < n {
		dst = make([]Suspect, n) //nocvet:allowalloc amortized growth of the caller's storage; later calls reuse it
	}
	out := dst[:n]

	// Earliness normalization: the span of blockage-onset cycles. Onset (the
	// start of the longest contiguous blocked streak) rather than
	// FirstBlocked, so isolated pre-attack congestion blips cannot claim the
	// "blocked earliest" crown from the link whose sustained outage actually
	// roots the tree.
	var minFirst, maxFirst uint64
	if tel != nil {
		for id := 0; id < n; id++ {
			if f, ok := tel.Onset(id); ok {
				if minFirst == 0 || f < minFirst {
					minFirst = f
				}
				if f > maxFirst {
					maxFirst = f
				}
			}
		}
	}

	for id := 0; id < n; id++ {
		s := Suspect{LinkID: id}

		// Detector component: the verdict plus the NACK ratio (evidence
		// even without detector hardware).
		var evd LinkEvidence
		if ev != nil {
			evd = ev[id]
		}
		nack := 0.0
		if t := evd.Retransmissions + evd.FlitsSent; t > 0 {
			nack = float64(evd.Retransmissions) / float64(t)
		}
		s.Det = 0.5*classScore(evd.Class) + 0.5*nack

		// Secure-ack channel: the verdict plus the loss/violation fraction
		// of the link's traffic. Fused by max, not sum — the NACK channel
		// and the ack channel witness disjoint attack families, and a link
		// is as suspect as its strongest witness. On runs without a monitor
		// every term is zero and s.Det is untouched (byte-stable rankings
		// for the flip-trojan experiments).
		if evd.Ack != detect.AckHealthy || evd.AckGap > 0 || evd.RouteViolations > 0 {
			anomaly := 0.0
			if evd.FlitsSent > 0 {
				anomaly = 5 * float64(evd.AckGap+evd.RouteViolations) / float64(evd.FlitsSent)
				if anomaly > 1 {
					anomaly = 1
				}
			}
			if ackDet := 0.5*ackScore(evd.Ack) + 0.5*anomaly; ackDet > s.Det {
				s.Det = ackDet
			}
		}

		// Telemetry components.
		if tel != nil {
			if first, ok := tel.Onset(id); ok {
				if span := maxFirst - minFirst; span > 0 {
					s.Early = 1 - float64(first-minFirst)/float64(span)
				} else {
					s.Early = 1
				}
				// Growth direction: of this link's upstream feeders that
				// ever blocked, the fraction that blocked at or after it.
				// The root wedges first and drags its feeders down; a
				// victim's feeder set contains the earlier-blocked root.
				blocked, later := 0, 0
				for _, f := range e.feeders[id] {
					ff, ok := tel.Onset(f)
					if !ok {
						continue
					}
					blocked++
					if ff >= first {
						later++
					}
				}
				if blocked > 0 {
					s.Growth = float64(later) / float64(blocked)
				} else {
					s.Growth = 0.5 // no feeder evidence either way
				}
				// Weight both by how persistently blocked the link is in
				// the trailing window: a transiently-congested port that
				// recovered is not the root.
				persist := tel.RecentBlockedFrac(id)
				s.Early *= 0.5 + 0.5*persist
				s.Growth *= 0.5 + 0.5*persist
			}
		}

		// Structural prior.
		s.Prior = 0.6 * e.priors.FanIn[id]
		if e.priors.Bisection[id] {
			s.Prior += 0.25
		}
		if e.priors.Wraparound[id] {
			s.Prior += 0.15
		}

		s.Score = w.Detector*s.Det + w.Earliness*s.Early + w.Growth*s.Growth + w.Prior*s.Prior
		out[id] = s
	}

	slices.SortFunc(out, bySuspicion)

	// Confidence: margin to the next-ranked suspect, normalized by the top
	// score.
	top := out[0].Score
	if top > 0 {
		for i := range out {
			next := 0.0
			if i+1 < len(out) {
				next = out[i+1].Score
			}
			out[i].Confidence = (out[i].Score - next) / top
		}
	}

	return out
}

// bySuspicion orders suspects by descending score, then ascending link id.
func bySuspicion(a, b Suspect) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.LinkID, b.LinkID)
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
