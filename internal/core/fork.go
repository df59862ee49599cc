package core

import (
	"slices"

	"tasp/internal/detect"
	"tasp/internal/noc"
	"tasp/internal/stats"
	"tasp/internal/traffic"
)

// Forking at the enable cycle (DESIGN.md §9). The paper's protocol warms
// the network up and only then enables the trojans, and a sweep crosses
// that protocol with attack families and mitigations whose warm-ups the
// network cannot tell apart: every trojan family acts only once its kill
// switch is armed at the enable cycle, the detector ignores clean plain
// traversals, and rerouting acts only RerouteDetectDelay cycles after
// enable. RunGroup therefore simulates one warm-up per set of configurations
// that share a pre-enable identity, checkpoints it at the end of cycle
// EnableCycle()-1, and resumes every other member from the checkpoint.

// preEnable is the comparable part of a configuration's pre-enable
// identity: the ExperimentConfig without what acts only from the enable
// cycle on — the attack deployment (all of AttackConfig but its enable
// cycle), Measure, RerouteDetectDelay, and the rerouting mitigation, which
// counts as none. The slice-valued fields are compared by samePreEnable.
// TestPreEnableClassifiesEveryField fails when ExperimentConfig gains a
// field this key has not classified.
type preEnable struct {
	noc             noc.Config
	benchmark       string
	model           *traffic.Model
	seed            uint64
	warmup          int
	enableAt        uint64
	sampleEvery     int
	mitigation      Mitigation
	transientBER    float64
	detectorHistory int
	locate          bool
	secureAck       bool
	ackDeficitRatio float64
	recover         bool
}

func preEnableOf(c *ExperimentConfig) preEnable {
	k := preEnable{
		noc:             c.Noc,
		benchmark:       c.Benchmark,
		model:           c.Model,
		seed:            c.Seed,
		warmup:          c.Warmup,
		enableAt:        c.EnableCycle(),
		sampleEvery:     c.SampleEvery,
		mitigation:      c.Mitigation,
		transientBER:    c.TransientBER,
		detectorHistory: c.DetectorHistory,
		locate:          c.Locate,
		secureAck:       c.SecureAck,
		ackDeficitRatio: c.AckDeficitRatio,
		recover:         c.RecoverOnConvict,
	}
	if k.model != nil {
		k.benchmark = "" // ignored when a model is set
	}
	if k.sampleEvery <= 0 {
		k.sampleEvery = defaultSampleEvery
	}
	if k.mitigation == Rerouting {
		k.mitigation = NoMitigation
	}
	return k
}

// samePreEnable reports whether two configurations drive the network
// identically up to the enable cycle.
func samePreEnable(a, b *ExperimentConfig) bool {
	return preEnableOf(a) == preEnableOf(b) &&
		slices.Equal(a.EscalationOrder, b.EscalationOrder) &&
		slices.Equal(a.PredisabledLinks, b.PredisabledLinks)
}

// forkable reports whether a configuration's warm-up may be shared, as far
// as the configuration alone tells. TDM and end-to-end scrambling carry
// pre-enable state of their own (the domain schedule, the key stream),
// transient faults drive every wire's injector and detector before enable,
// and an enable cycle outside [1, Warmup+Measure) leaves no warm-up to
// share. A warm-up that reconfigures the network (pre-disabled links, a
// conviction under RecoverOnConvict) is caught when the checkpoint would be
// taken.
func forkable(c *ExperimentConfig) bool {
	switch c.Mitigation {
	case NoMitigation, S2SLOb, Rerouting:
	default:
		return false
	}
	e := c.EnableCycle()
	return c.TransientBER == 0 && e >= 1 && e < uint64(c.Warmup+c.Measure)
}

// Groups partitions configurations 0..n-1 into fork groups for a pool of
// workers: the members of a group share their pre-enable identity, so
// RunGroup simulates their warm-up once. Configurations that cannot fork,
// and ones cfg fails to lower, form groups of one. Groups are ordered by
// their first member and list their members in ascending order. While there
// are fewer groups than workers, the largest group is split in two, so no
// worker idles for want of a group.
func Groups(n, workers int, cfg func(i int) (ExperimentConfig, error)) [][]int {
	// Configurations are lowered on demand rather than held, and compared
	// exactly only with the groups whose identity hashed alike, so
	// grouping a grid costs a few words per point.
	gid := make([]int32, n) // each configuration's group, numbered by first member
	var first []int         // group -> its first member
	var alike []int32       // group -> the previous group whose identity hashed alike, or -1
	byHash := map[uint64]int32{}
	for i := range gid {
		c, err := cfg(i)
		if err != nil || !forkable(&c) {
			gid[i] = int32(len(first))
			first, alike = append(first, i), append(alike, -1)
			continue
		}
		k := preEnableOf(&c)
		h := k.hash()
		last, seen := byHash[h]
		g := int32(-1)
		for cand := last; seen && cand >= 0 && g < 0; cand = alike[cand] {
			if rep, _ := cfg(first[cand]); samePreEnable(&c, &rep) {
				g = cand
			}
		}
		if g < 0 {
			g = int32(len(first))
			if !seen {
				last = -1
			}
			first, alike = append(first, i), append(alike, last)
			byHash[h] = g
		}
		gid[i] = g
	}
	size := make([]int, len(first))
	for _, g := range gid {
		size[g]++
	}
	flat := make([]int, n)
	groups := make([][]int, len(first))
	off := 0
	for g := range groups {
		groups[g] = flat[off : off : off+size[g]]
		off += size[g]
	}
	for i, g := range gid {
		groups[g] = append(groups[g], i)
	}
	for len(groups) > 0 && len(groups) < workers {
		big := 0
		for g := range groups {
			if len(groups[g]) > len(groups[big]) {
				big = g
			}
		}
		m := groups[big]
		if len(m) < 2 {
			break
		}
		half := (len(m) + 1) / 2
		groups[big] = m[:half:half]
		rest := m[half:]
		pos := big + 1
		for pos < len(groups) && groups[pos][0] < rest[0] {
			pos++
		}
		groups = slices.Insert(groups, pos, rest)
	}
	return groups
}

// hash folds the identity's most discriminating fields into a bucket key.
// Equal identities hash equal; collisions only cost an exact comparison.
func (k *preEnable) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(k.seed)
	mix(k.enableAt)
	mix(uint64(k.warmup))
	mix(uint64(k.mitigation))
	mix(uint64(k.noc.Width)<<32 | uint64(k.noc.Height))
	for i := 0; i < len(k.noc.Topo); i++ {
		mix(uint64(k.noc.Topo[i]))
	}
	for i := 0; i < len(k.benchmark); i++ {
		mix(uint64(k.benchmark[i]))
	}
	return h
}

// forkStore is a Runner's warm-up checkpoint: one store reused across its
// platforms and groups, holding copies of the live state a warm-up leaves
// behind — the network's, the traffic generator's draw position, the
// secure-ack monitor's windows, the L-Ob flow latches and the Results
// prefix a warm-up writes (occupancy samples, the latency distribution, an
// early conviction). Trojans need nothing: at the enable cycle their state
// is still their Reset state.
type forkStore struct {
	ok  bool             // holds a warm-up later members may resume
	cfg ExperimentConfig // the configuration the warm-up ran

	net     noc.Checkpoint
	gen     traffic.GeneratorState
	ack     detect.AckMonitor
	flows   []flowSlot
	samples []Sample
	latency *stats.Histogram
	flagged uint64 // Results.AckFlaggedAt
}

// save checkpoints the warm-up at the end of cycle EnableCycle()-1. A
// warm-up that reconfigured the network leaves the store empty: the route
// tables and disabled links are not part of the checkpoint.
func (f *forkStore) save(cfg *ExperimentConfig, a *arena, gen *traffic.Generator, ack *detect.AckMonitor, res *Results) {
	f.ok = len(a.disabled) == 0
	if !f.ok {
		return
	}
	f.cfg = *cfg
	a.net.Save(&f.net)
	gen.Save(&f.gen)
	if ack != nil {
		f.ack.CopyFrom(ack)
	}
	f.flows = f.flows[:0]
	if cfg.Mitigation == S2SLOb {
		for _, w := range a.wires {
			f.flows = w.saveFlows(f.flows)
		}
	}
	f.samples = append(f.samples[:0], res.Samples...)
	if f.latency == nil {
		f.latency = stats.NewHistogram()
	}
	f.latency.Reset()
	f.latency.Merge(res.Latency)
	f.flagged = res.AckFlaggedAt
}

// restore resumes a member from the stored warm-up. The member's own
// set-up has already run — trojans reset, wires installed and reset, the
// generator, monitor and telemetry tap attached — so what is restored is
// exactly the state the warm-up changed.
func (f *forkStore) restore(a *arena, gen *traffic.Generator, ack *detect.AckMonitor, res *Results) {
	a.net.Restore(&f.net)
	gen.Restore(&f.gen)
	if ack != nil {
		ack.CopyFrom(&f.ack)
	}
	rest := f.flows
	for _, w := range a.wires {
		if len(rest) == 0 {
			break
		}
		rest = w.restoreFlows(rest)
	}
	res.Samples = append(res.Samples[:0], f.samples...)
	res.Latency.Reset()
	res.Latency.Merge(f.latency)
	res.AckFlaggedAt = f.flagged
}

// runMode says what a run does about the warm-up checkpoint.
type runMode uint8

const (
	runWhole      runMode = iota // simulate every cycle, touch no checkpoint
	runCheckpoint                // simulate every cycle, checkpoint the warm-up
	runResume                    // resume from the checkpoint at the enable cycle
)

// RunGroup runs a group of configurations in order: member i's results go
// into into(i), and each, when non-nil, is called with them once member i
// has finished and before member i+1 starts. A member whose pre-enable
// identity a later member shares checkpoints its warm-up at the end of
// cycle EnableCycle()-1, and the later members resume from the checkpoint
// instead of simulating the warm-up again. Every member's results are
// exactly what RunInto gives it; RunInto is a group of one and takes no
// checkpoint. Groups hands out groups whose members share their identity.
// The first error stops the group.
func (r *Runner) RunGroup(cfgs []ExperimentConfig, into func(i int) *Results, each func(i int, res *Results) error) error {
	r.fork.ok = false
	for i := range cfgs {
		c := &cfgs[i]
		mode := runWhole
		if forkable(c) {
			if r.fork.ok && samePreEnable(c, &r.fork.cfg) {
				mode = runResume
			} else if sharesLater(c, cfgs[i+1:]) {
				mode = runCheckpoint
			}
		}
		res := into(i)
		if err := r.run(*c, res, mode); err != nil {
			return err
		}
		if each != nil {
			if err := each(i, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// sharesLater reports whether a later member could resume c's warm-up.
func sharesLater(c *ExperimentConfig, later []ExperimentConfig) bool {
	for i := range later {
		if forkable(&later[i]) && samePreEnable(c, &later[i]) {
			return true
		}
	}
	return false
}
