package core

import (
	"maps"
	"slices"

	"tasp/internal/detect"
	"tasp/internal/locate"
	"tasp/internal/noc"
	"tasp/internal/stats"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// Forking at the enable cycle (DESIGN.md §9). The paper's protocol warms
// the network up and only then enables the trojans, and a sweep crosses
// that protocol with attack families and mitigations whose warm-ups the
// network cannot tell apart: every trojan family acts only once its kill
// switch is armed at the enable cycle, a mitigated wire does nothing on a
// fault-free link that an unmitigated one does not, and rerouting acts only
// RerouteDetectDelay cycles after enable. RunGroup therefore simulates one
// warm-up per set of configurations that share a pre-enable identity,
// checkpoints it at the end of cycle EnableCycle()-1, and resumes every
// other member from the checkpoint. A member whose whole run is another's
// (same run identity) is not simulated at all: it gets a copy of that
// member's Results. An attacked rerouting member is, up to its reroute
// cycle, its twin — the same configuration under no mitigation — so when a
// group holds both, the twin checkpoints again at the reroute cycle and the
// rerouting member resumes there.

// preEnable is the comparable part of a configuration's pre-enable
// identity: the ExperimentConfig without what acts only from the enable
// cycle on — the attack deployment (all of AttackConfig but its enable
// cycle), Measure, RerouteDetectDelay, DetectorHistory, EscalationOrder,
// and the s2s-lob and rerouting mitigations, which count as none. The
// slice-valued fields are compared by samePreEnable.
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
	if k.mitigation == S2SLOb || k.mitigation == Rerouting {
		k.mitigation = NoMitigation
	}
	return k
}

// samePreEnable reports whether two configurations drive the network
// identically up to the enable cycle.
func samePreEnable(a, b *ExperimentConfig) bool {
	return preEnableOf(a) == preEnableOf(b) && slices.Equal(a.PredisabledLinks, b.PredisabledLinks)
}

// runKey is the comparable part of what a run adds to its pre-enable
// identity from the enable cycle on; sameRun compares the slice-valued
// fields. On a fault-free run only the fields a clean run still reads
// count: the attack's on/off switch and target (victim accounting) and
// Measure.
type runKey struct {
	enabled         bool
	kind            tasp.Kind
	target          tasp.Target
	yBits           int
	hijack          int
	dutyPeriod      int
	dutyActive      int
	numLinks        int
	measure         int
	mitigation      Mitigation
	rerouteDelay    int
	detectorHistory int
}

// faultFree reports whether a run has no fault source: no trojan is
// deployed and no transient fault is drawn, so no wire ever faults. Every
// attempt is then attempt 0, which a mitigated wire sends plain, and
// rerouting never acts: none, s2s-lob and rerouting run alike.
func faultFree(c *ExperimentConfig) bool { return !c.Attack.Enabled && c.TransientBER == 0 }

func runKeyOf(c *ExperimentConfig) runKey {
	a := &c.Attack
	k := runKey{enabled: a.Enabled, target: a.Target, measure: c.Measure}
	if faultFree(c) {
		return k
	}
	k.kind, k.yBits, k.hijack = a.Kind, a.YBits, a.Hijack
	k.dutyPeriod, k.dutyActive, k.numLinks = a.DutyPeriod, a.DutyActive, a.NumLinks
	k.mitigation = c.Mitigation
	switch {
	case c.Mitigation != Rerouting:
	case rerouteAt(c) > uint64(c.Warmup+c.Measure):
		k.mitigation = NoMitigation // it never reroutes: its run is its twin's
	default:
		k.rerouteDelay = rerouteDelay(c)
	}
	k.detectorHistory = c.DetectorHistory
	return k
}

// rerouteDelay is the cycles the rerouting baseline waits after enable.
func rerouteDelay(c *ExperimentConfig) int {
	if c.RerouteDetectDelay <= 0 {
		return defaultRerouteDetectDelay
	}
	return c.RerouteDetectDelay
}

// rerouteAt is the cycle at whose end an attacked rerouting run disables
// the infected links; a run that ends before it never reroutes.
func rerouteAt(c *ExperimentConfig) uint64 { return c.EnableCycle() + uint64(rerouteDelay(c)) }

// sameRun reports whether two configurations run identically from the
// first cycle to the last, so that their Results differ only in Config.
// Attack.Links counts even when the attack is disabled: the run reports
// them as InfectedLinks.
func sameRun(a, b *ExperimentConfig) bool {
	return samePreEnable(a, b) && runKeyOf(a) == runKeyOf(b) &&
		slices.Equal(a.Attack.Links, b.Attack.Links) &&
		(faultFree(a) || slices.Equal(a.EscalationOrder, b.EscalationOrder))
}

// twinOf is a rerouting configuration's twin: the same configuration under
// no mitigation, which runs cycle for cycle alike until the reroute.
func twinOf(c *ExperimentConfig) ExperimentConfig {
	t := *c
	t.Mitigation = NoMitigation
	return t
}

// reroutesMidRun reports whether c is a valid, forkable, attacked
// rerouting configuration that reroutes before its last cycle: one that
// may resume its twin's run at its reroute cycle.
func reroutesMidRun(c *ExperimentConfig) bool {
	return c.Mitigation == Rerouting && c.Attack.Enabled && forkable(c) &&
		rerouteAt(c) <= uint64(c.Warmup+c.Measure) && c.Validate() == nil
}

// resumesTwin reports whether member c may resume the run of t at c's
// reroute cycle: c reroutes mid-run and t runs as c's twin.
func resumesTwin(c, t *ExperimentConfig) bool {
	if !reroutesMidRun(c) {
		return false
	}
	twin := twinOf(c)
	return sameRun(&twin, t)
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

// forkStore is a Runner's checkpoint: one store reused across its platforms
// and groups, holding copies of the live state a run leaves behind at the
// top of one cycle's iteration — the network's (with the flows its flits
// carry), the traffic generator's draw position, the secure-ack monitor's
// windows and the Results a run writes as it goes (occupancy samples, the
// latency distribution, the counters at enable, the victim's deliveries, an
// early conviction, the suspect trace). It holds nothing of the wires. A
// warm-up checkpoint is taken at the end of cycle EnableCycle()-1, when
// every trojan is still in its Reset state; a twin checkpoint at the end of
// the cycle before a rerouting member's reroute cycle, with the armed
// trojans' state.
type forkStore struct {
	ok  bool             // holds a checkpoint later members may resume
	at  uint64           // the cycle the saved network had finished
	cfg ExperimentConfig // the configuration whose run was saved

	net      noc.Checkpoint
	gen      traffic.GeneratorState
	ack      detect.AckMonitor
	trojans  []tasp.Snapshot // past the enable cycle only
	samples  []Sample
	latency  *stats.Histogram
	trace    []locate.TraceSample
	atEnable noc.Counters // Results.AtEnable
	victim   uint64       // Results.VictimDelivered
	flagged  uint64       // Results.AckFlaggedAt
}

// save checkpoints cfg's run at the top of its current iteration, with the
// state of the armed trojans given. A run that reconfigured the network
// leaves the store as it is: the route tables and disabled links are not
// part of the checkpoint.
func (f *forkStore) save(cfg *ExperimentConfig, a *arena, gen *traffic.Generator, ack *detect.AckMonitor, res *Results, armed []tasp.Trojan) {
	if len(a.disabled) > 0 {
		return
	}
	f.ok, f.at, f.cfg = true, a.net.Cycle(), *cfg
	a.net.Save(&f.net)
	gen.Save(&f.gen)
	if ack != nil {
		f.ack.CopyFrom(ack)
	}
	f.trojans = f.trojans[:0]
	for _, t := range armed {
		f.trojans = append(f.trojans, t.Save())
	}
	f.samples = append(f.samples[:0], res.Samples...)
	if f.latency == nil {
		f.latency = stats.NewHistogram()
	}
	f.latency.Reset()
	f.latency.Merge(res.Latency)
	f.trace = append(f.trace[:0], res.SuspectTrace...)
	f.atEnable, f.victim, f.flagged = res.AtEnable, res.VictimDelivered, res.AckFlaggedAt
}

// resumable reports whether member c may resume the stored checkpoint: a
// warm-up its pre-enable identity shares, or its twin's run at the end of
// the cycle before c's reroute cycle.
func (f *forkStore) resumable(c *ExperimentConfig) bool {
	switch {
	case !f.ok:
		return false
	case f.at+1 == c.EnableCycle():
		return samePreEnable(c, &f.cfg)
	default:
		return f.at+1 == rerouteAt(c) && resumesTwin(c, &f.cfg)
	}
}

// restore resumes a member from the stored checkpoint. The member's own
// set-up has already run — trojans reset, wires installed and reset, the
// generator, monitor and telemetry tap attached — so what is restored is
// exactly the state the saved run changed.
func (f *forkStore) restore(a *arena, gen *traffic.Generator, ack *detect.AckMonitor, res *Results, trojans []tasp.Trojan) {
	a.net.Restore(&f.net)
	gen.Restore(&f.gen)
	if ack != nil {
		ack.CopyFrom(&f.ack)
	}
	for i, s := range f.trojans {
		trojans[i].Restore(s)
	}
	res.Samples = append(res.Samples[:0], f.samples...)
	res.Latency.Reset()
	res.Latency.Merge(f.latency)
	res.SuspectTrace = append(res.SuspectTrace[:0], f.trace...)
	res.AtEnable, res.VictimDelivered, res.AckFlaggedAt = f.atEnable, f.victim, f.flagged
}

// keptRun is the Results of the last simulated group member whose run
// identity a later member shares, in storage the Runner reuses.
type keptRun struct {
	ok  bool
	cfg ExperimentConfig
	res Results
}

// copyResults makes dst a deep copy of src, reusing dst's storage: every
// field is src's, every slice, map and the histogram dst's own.
func copyResults(dst, src *Results) {
	own := *dst
	*dst = *src
	dst.InfectedLinks = append(own.InfectedLinks[:0], src.InfectedLinks...)
	dst.Samples = append(own.Samples[:0], src.Samples...)
	dst.RecoveredLinks = append(own.RecoveredLinks[:0], src.RecoveredLinks...)
	dst.Suspects = append(own.Suspects[:0], src.Suspects...)
	dst.SuspectsTelemetry = append(own.SuspectsTelemetry[:0], src.SuspectsTelemetry...)
	dst.SuspectTrace = append(own.SuspectTrace[:0], src.SuspectTrace...)
	dst.Detections = copyMap(own.Detections, src.Detections)
	dst.TriggerScopes = copyMap(own.TriggerScopes, src.TriggerScopes)
	dst.AckVerdicts = copyMap(own.AckVerdicts, src.AckVerdicts)
	dst.AckChannels = copyMap(own.AckChannels, src.AckChannels)
	dst.Latency = own.Latency
	if dst.Latency == nil {
		dst.Latency = stats.NewHistogram()
	}
	dst.Latency.Reset()
	dst.Latency.Merge(src.Latency)
}

// copyMap makes dst, allocated if nil, hold exactly src's entries.
func copyMap[K comparable, V any](dst, src map[K]V) map[K]V {
	if dst == nil {
		dst = make(map[K]V, len(src))
	}
	clear(dst)
	maps.Copy(dst, src)
	return dst
}

// runMode says what a run does about the checkpoint.
type runMode uint8

const (
	runWhole      runMode = iota // simulate every cycle, touch no checkpoint
	runCheckpoint                // simulate every cycle, checkpoint the warm-up
	runResume                    // resume from the stored checkpoint
)

// RunGroup runs a group of configurations: member i's results go into
// into(i), and each, when non-nil, is called with them once member i has
// finished and before the next member starts. Every member's results are
// exactly what RunInto gives it, but the group simulates each distinct run
// once:
//   - a member whose run identity an earlier simulated member shares gets
//     a copy of that member's Results, with its own Config;
//   - a member whose pre-enable identity a later, different run shares
//     checkpoints its warm-up at the end of cycle EnableCycle()-1, and the
//     later members resume from the checkpoint;
//   - when the group holds an attacked rerouting member and its twin, the
//     twin checkpoints again at the end of the cycle before the member's
//     reroute cycle, and the member resumes there.
//
// The members run in index order, except that the twin, the rerouting
// member and the members repeating either run last, in that order: the
// twin's checkpoint replaces the warm-up's, so every member resuming the
// warm-up runs before it. RunInto is a group of one and takes no
// checkpoint. Groups hands out groups whose members share their pre-enable
// identity. The first error stops the group.
func (r *Runner) RunGroup(cfgs []ExperimentConfig, into func(i int) *Results, each func(i int, res *Results) error) error {
	r.fork.ok, r.kept.ok = false, false
	twin, twinAt := r.plan(cfgs)
	for pos, i := range r.order {
		c := &cfgs[i]
		res := into(i)
		var err error
		switch {
		case !forkable(c):
			err = r.run(*c, res, runWhole, 0)
		case r.kept.ok && sameRun(c, &r.kept.cfg):
			err = r.copyRun(*c, res)
		default:
			resume, repeat := laterNeeds(c, cfgs, r.order[pos+1:])
			mode := runWhole
			switch {
			case r.fork.resumable(c):
				mode = runResume
			case resume:
				mode = runCheckpoint
			}
			var saveAt uint64
			if i == twin {
				saveAt = twinAt
			}
			err = r.run(*c, res, mode, saveAt)
			if err == nil && repeat {
				r.kept.ok, r.kept.cfg = true, *c
				copyResults(&r.kept.res, res)
			}
		}
		if err != nil {
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

// plan fills r.order with the order RunGroup runs cfgs in, and picks the
// group's twin fork: the first attacked rerouting member that reroutes
// mid-run and has a twin in the group. It returns the first member running
// the twin's configuration and the rerouting member's reroute cycle, or -1
// and 0 when the group has no such pair. The members running the twin's
// configuration go last, except for those running the rerouting member's,
// which follow them.
func (r *Runner) plan(cfgs []ExperimentConfig) (twin int, at uint64) {
	r.order = r.order[:0]
	twin, rr := -1, -1
	for i := 0; i < len(cfgs) && twin < 0; i++ {
		if !reroutesMidRun(&cfgs[i]) {
			continue
		}
		t := twinOf(&cfgs[i])
		for j := range cfgs {
			if sameRun(&t, &cfgs[j]) {
				twin, rr = j, i
				break
			}
		}
	}
	phase := func(i int) int {
		switch {
		case twin < 0:
			return 0
		case sameRun(&cfgs[i], &cfgs[twin]):
			return 1
		case sameRun(&cfgs[i], &cfgs[rr]):
			return 2
		}
		return 0
	}
	for p := 0; p < 3; p++ {
		for i := range cfgs {
			if phase(i) == p {
				r.order = append(r.order, i)
			}
		}
	}
	if twin < 0 {
		return -1, 0
	}
	return twin, rerouteAt(&cfgs[rr])
}

// copyRun gives a member the kept run's results. Its configuration is
// validated and its defaults applied exactly as run would.
func (r *Runner) copyRun(cfg ExperimentConfig, res *Results) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	withDefaults(&cfg)
	copyResults(res, &r.kept.res)
	res.Config = cfg
	return nil
}

// laterNeeds reports what the members of later, indices into cfgs, need
// of c's run: resume, that one resumes c's warm-up (same pre-enable
// identity, a different run); repeat, that one repeats c's whole run and
// copies its results. A rerouting member that will resume its twin counts
// as resuming the warm-up: it falls back to it when the twin's checkpoint
// is declined.
func laterNeeds(c *ExperimentConfig, cfgs []ExperimentConfig, later []int) (resume, repeat bool) {
	for _, i := range later {
		l := &cfgs[i]
		switch {
		case !forkable(l) || !samePreEnable(c, l):
		case sameRun(c, l):
			repeat = true
		default:
			resume = true
		}
	}
	return resume, repeat
}
