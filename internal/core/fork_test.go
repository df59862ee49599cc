package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tasp/internal/detect"
	"tasp/internal/noc"
	"tasp/internal/stats"
	"tasp/internal/tasp"
	"tasp/internal/traffic"
)

// bump changes a value in place to a different value of its type.
func bump(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		bump(v.Field(0))
	default:
		panic(fmt.Sprintf("bump: unhandled kind %v", v.Kind()))
	}
}

// TestPreEnableClassifiesEveryField pins the fork identities field by
// field. Changing a field the network reads before the enable cycle must
// change the pre-enable identity, and changing one that acts only from the
// enable cycle on must not. Changing any field a run reads must change the
// run identity; on a fault-free run (attack disabled, no transient faults)
// the fields that act only on faults must not. Changing any field of an
// attacked rerouting member but its reroute delay, which picks the cycle
// of the twin's checkpoint, must part it from its twin. A field added to
// ExperimentConfig or AttackConfig fails here until it is classified — and
// added to preEnable or runKey where it belongs.
func TestPreEnableClassifiesEveryField(t *testing.T) {
	type class struct{ pre, run, cleanRun, twin bool } // does a change split the identity?
	all, onFaults := class{true, true, true, true}, class{false, true, false, true}
	classes := map[string]class{
		"Noc": all, "Benchmark": all, "Model": all, "Seed": all, "Warmup": all,
		"Measure": {false, true, true, true}, "SampleEvery": all, "TransientBER": all,
		// The base is unmitigated, so the reroute delay acts on nothing;
		// under rerouting it is checked below.
		"RerouteDetectDelay": {false, false, false, false},
		"DetectorHistory":    onFaults, "EscalationOrder": onFaults, "Locate": all,
		"SecureAck": all, "AckDeficitRatio": all, "RecoverOnConvict": all,
		"PredisabledLinks": all,
		// Mitigation is classified per value: TDM and end-to-end scrambling
		// act from the first cycle, s2s-lob and rerouting only on faults.
		// Only a rerouting member has a twin.
		"Mitigation=s2s-lob": onFaults, "Mitigation=rerouting": {false, true, false, false},
		"Mitigation=tdm-qos": all, "Mitigation=e2e-obfuscation": all,
		// Attack is classified per field. A disabled attack still reports
		// its links and counts its target's deliveries.
		"Attack.EnableAt": all, "Attack.Enabled": {false, true, true, true},
		"Attack.Target": {false, true, true, true}, "Attack.Links": {false, true, true, true},
		"Attack.Kind": onFaults, "Attack.YBits": onFaults, "Attack.Hijack": onFaults,
		"Attack.DutyPeriod": onFaults, "Attack.DutyActive": onFaults, "Attack.NumLinks": onFaults,
	}
	check := func(name string, mut func(*ExperimentConfig)) {
		want, ok := classes[name]
		if !ok {
			t.Errorf("field %s is not classified for the fork identities", name)
			return
		}
		attacked := DefaultExperiment()
		clean := attacked
		clean.Attack.Enabled = false
		for _, base := range []ExperimentConfig{attacked, clean} {
			c := base
			mut(&c)
			got := class{pre: !samePreEnable(&base, &c), run: !sameRun(&base, &c)}
			if base.Attack.Enabled {
				if got.pre != want.pre || got.run != want.run {
					t.Errorf("changing %s splits the pre-enable identity: %v, want %v; the run identity: %v, want %v",
						name, got.pre, want.pre, got.run, want.run)
				}
			} else if got.run != want.cleanRun {
				t.Errorf("changing %s splits a fault-free run's identity: %v, want %v", name, got.run, want.cleanRun)
			}
		}
		rr := attacked
		rr.Mitigation = Rerouting
		if !resumesTwin(&rr, &attacked) {
			t.Fatal("an attacked rerouting point does not resume its twin")
		}
		mut(&rr)
		if split := !resumesTwin(&rr, &attacked); split != want.twin {
			t.Errorf("changing %s of a rerouting member parts it from its twin: %v, want %v", name, split, want.twin)
		}
	}
	ct := reflect.TypeOf(ExperimentConfig{})
	for i := 0; i < ct.NumField(); i++ {
		switch name := ct.Field(i).Name; name {
		case "Mitigation":
			for _, m := range []Mitigation{S2SLOb, Rerouting, TDMQoS, E2EObfuscation} {
				check("Mitigation="+m.String(), func(c *ExperimentConfig) { c.Mitigation = m })
			}
		case "Attack":
			at := ct.Field(i).Type
			for j := 0; j < at.NumField(); j++ {
				check("Attack."+at.Field(j).Name, func(c *ExperimentConfig) {
					bump(reflect.ValueOf(c).Elem().Field(i).Field(j))
				})
			}
		default:
			check(name, func(c *ExperimentConfig) { bump(reflect.ValueOf(c).Elem().Field(i)) })
		}
	}
	a, b := DefaultExperiment(), DefaultExperiment()
	b.Attack.EnableAt = uint64(b.Warmup) // the default enable cycle, spelled out
	if !sameRun(&a, &b) {
		t.Error("an explicit enable cycle equal to the default splits the run identity")
	}
	a.Mitigation, b.Mitigation = Rerouting, Rerouting
	b.RerouteDetectDelay = defaultRerouteDetectDelay // 0 reads as the default
	if !sameRun(&a, &b) {
		t.Error("a reroute delay equal to the default splits the run identity")
	}
	b.RerouteDetectDelay++
	if sameRun(&a, &b) {
		t.Error("the reroute delay of an attacked rerouting run leaves its identity")
	}
	a.Attack.Enabled, b.Attack.Enabled = false, false
	if !sameRun(&a, &b) {
		t.Error("the reroute delay of a fault-free run splits its identity")
	}
	a.Attack.Enabled = true
	a.RerouteDetectDelay = a.Measure + 1
	twin := twinOf(&a)
	if !sameRun(&a, &twin) || resumesTwin(&a, &twin) {
		t.Error("a rerouting run that ends before its reroute cycle must be its twin's run, not resume it")
	}
}

// TestGroupsOrderAndSplit: groups list members ascending, ordered by their
// first member, and ineligible points stand alone; with fewer groups than
// workers, the largest is split until every worker has one.
func TestGroupsOrderAndSplit(t *testing.T) {
	point := func(seed uint64, attack bool, mit Mitigation) ExperimentConfig {
		c := DefaultExperiment()
		c.Seed, c.Attack.Enabled, c.Mitigation = seed, attack, mit
		return c
	}
	cfgs := []ExperimentConfig{
		point(1, false, NoMitigation), // 0
		point(2, false, NoMitigation), // 1
		point(1, true, NoMitigation),  // 2
		point(1, true, TDMQoS),        // 3: ineligible
		point(2, true, Rerouting),     // 4
		point(1, true, Rerouting),     // 5
	}
	lower := func(i int) (ExperimentConfig, error) { return cfgs[i], nil }
	for _, tc := range []struct {
		workers int
		want    string
	}{
		{1, "[[0 2 5] [1 4] [3]]"},
		{3, "[[0 2 5] [1 4] [3]]"},
		{4, "[[0 2] [1 4] [3] [5]]"},
		{6, "[[0] [1] [2] [3] [4] [5]]"},
		{9, "[[0] [1] [2] [3] [4] [5]]"},
	} {
		if got := fmt.Sprint(Groups(len(cfgs), tc.workers, lower)); got != tc.want {
			t.Errorf("Groups(workers=%d) = %s, want %s", tc.workers, got, tc.want)
		}
	}
}

// forkState is everything a run carries across a checkpoint, as the
// checkpoint's own copy routines see it.
type forkState struct {
	net     noc.Checkpoint
	gen     traffic.GeneratorState
	ack     detect.AckMonitor
	trojans []tasp.Snapshot
	res     Results // the prefix a run writes as it goes
	strikes uint64  // the trojans' strikes so far
	steps   int     // cycles stepped by every point run
}

// stateAt runs run on a fresh Runner and returns the state of the last
// point to finish the given cycle.
func stateAt(t *testing.T, cfg ExperimentConfig, cycle uint64, run func(*Runner) error) *forkState {
	t.Helper()
	r := NewRunner()
	st := &forkState{}
	r.audit = func(n *noc.Network) error {
		st.steps++
		if n.Cycle() != cycle {
			return nil
		}
		a := r.arenas[cfg.Noc]
		n.Save(&st.net)
		a.gens[r.models[modelKey{cfg.Benchmark, cfg.Noc}]].Save(&st.gen)
		if cfg.SecureAck {
			st.ack.CopyFrom(a.ackmon)
		}
		st.trojans, st.strikes = st.trojans[:0], 0
		for _, chain := range a.chains {
			for _, tap := range chain {
				if tr, ok := tap.(tasp.Trojan); ok {
					st.trojans = append(st.trojans, tr.Save())
					_, s := tr.Stats()
					st.strikes += s
				}
			}
		}
		st.res = Results{
			Samples:         slices.Clone(a.res.Samples),
			Latency:         stats.NewHistogram(),
			AtEnable:        a.res.AtEnable,
			VictimDelivered: a.res.VictimDelivered,
			AckFlaggedAt:    a.res.AckFlaggedAt,
			ReroutedAt:      a.res.ReroutedAt,
			SuspectTrace:    slices.Clone(a.res.SuspectTrace),
		}
		st.res.Latency.Merge(a.res.Latency)
		return nil
	}
	if err := run(r); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestForkStateAtEnableMatchesWholeRun compares, one cycle after the fork,
// everything a resumed member carries — the network with the flows its
// flits carry, the generator's draw position, the secure-ack monitor, the
// trojans and the Results written so far — with the same point run whole.
// Unlike the end-to-end comparison, it catches state a checkpoint drops
// even when no outcome happens to depend on it. In the warm-up cases the
// resumed member is the attacked one, after its clean twin; in the "s2s-lob
// after none" case the twin is unmitigated, so the s2s-lob member resumes a
// warm-up whose wires never ran mitigated. In the twin cases the resumed
// member is an attacked rerouting point, after the same point under none,
// and the state is compared at its reroute cycle, the first it steps.
func TestForkStateAtEnableMatchesWholeRun(t *testing.T) {
	base := DefaultExperiment()
	base.Warmup, base.Measure = 400, 50
	lob := base
	lob.Mitigation = S2SLOb
	secure := base
	secure.Noc.Topo = "torus"
	secure.Attack.Kind = tasp.KindDrop
	secure.SecureAck, secure.Locate = true, true
	rerouting := func(c ExperimentConfig) ExperimentConfig {
		c.Measure, c.Mitigation = 250, Rerouting
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  ExperimentConfig
		twin Mitigation // the twin's mitigation
		fork bool       // the twin is attacked: the member resumes at its reroute cycle
	}{
		{"s2s-lob", lob, S2SLOb, false},
		{"secure-ack", secure, NoMitigation, false},
		{"s2s-lob after none", lob, NoMitigation, false},
		{"twin", rerouting(base), NoMitigation, true},
		{"twin secure-ack", rerouting(secure), NoMitigation, true},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			twin := cfg
			twin.Attack.Enabled, twin.Mitigation = tc.fork, tc.twin
			at, resumed := cfg.EnableCycle(), cfg.Measure+1
			if tc.fork {
				at, resumed = rerouteAt(&cfg), cfg.Measure-defaultRerouteDetectDelay+1
			}
			whole := stateAt(t, cfg, at, func(r *Runner) error { return r.RunInto(cfg, &Results{}) })
			forked := stateAt(t, cfg, at, func(r *Runner) error {
				res := &Results{}
				return r.RunGroup([]ExperimentConfig{twin, cfg}, func(int) *Results { return res }, nil)
			})
			if forked.steps != whole.steps+resumed {
				t.Fatalf("the group stepped %d cycles, the point alone %d: the member did not resume", forked.steps, whole.steps)
			}
			if !reflect.DeepEqual(whole.net, forked.net) {
				t.Error("network state differs")
			}
			if !reflect.DeepEqual(whole.gen, forked.gen) {
				t.Error("generator state differs")
			}
			if !reflect.DeepEqual(whole.ack, forked.ack) {
				t.Error("secure-ack monitor state differs")
			}
			if !reflect.DeepEqual(whole.trojans, forked.trojans) {
				t.Error("trojan state differs")
			}
			if !reflect.DeepEqual(whole.res, forked.res) {
				t.Error("the Results written so far differ")
			}
			if tc.fork && (whole.strikes == 0 || whole.res.ReroutedAt != at) {
				t.Errorf("%d strikes before the reroute cycle, rerouted at %d: the comparison is vacuous", whole.strikes, whole.res.ReroutedAt)
			}
		})
	}
}

// TestCopyResultsOwnsItsStorage: a copied member's Results equal the
// source's field for field, and none of its slices, maps or histogram is
// the source's — the source's storage is reused by the next point. The
// check walks the struct, so Results fields added later are covered: any
// slice or map the source run leaves empty gets one entry first.
func TestCopyResultsOwnsItsStorage(t *testing.T) {
	cfg := DefaultExperiment()
	cfg.Warmup, cfg.Measure = 400, 600
	cfg.Attack.Kind = tasp.KindDrop
	cfg.SecureAck, cfg.Locate, cfg.RecoverOnConvict = true, true, true
	src, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := reflect.ValueOf(src).Elem()
	for i := 0; i < s.NumField(); i++ {
		switch f := s.Field(i); {
		case f.Kind() == reflect.Slice && f.Len() == 0:
			f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		case f.Kind() == reflect.Map && f.Len() == 0:
			f.SetMapIndex(reflect.Zero(f.Type().Key()), reflect.Zero(f.Type().Elem()))
		}
	}
	lob := cfg
	lob.Attack.Kind, lob.Mitigation = tasp.KindFlip, S2SLOb
	used, err := Run(lob) // the grown storage of another run, as a worker's Results has
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []*Results{{}, used} {
		copyResults(dst, src)
		if !reflect.DeepEqual(*dst, *src) {
			t.Fatal("the copy differs from its source")
		}
		d := reflect.ValueOf(dst).Elem()
		for i := 0; i < d.NumField(); i++ {
			switch d.Field(i).Kind() {
			case reflect.Slice, reflect.Map, reflect.Pointer:
				if d.Field(i).Pointer() == s.Field(i).Pointer() {
					t.Errorf("Results.%s shares the source's storage", d.Type().Field(i).Name)
				}
			}
		}
	}
}

// TestCopiedMemberIsValidated: a member that copies an earlier run is
// validated as if it ran. Its run identity leaves out the fields a clean
// run never reads, but an out-of-range value there still fails the point.
func TestCopiedMemberIsValidated(t *testing.T) {
	clean := DefaultExperiment()
	clean.Warmup, clean.Measure = 100, 100
	clean.Attack.Enabled = false
	bad := clean
	bad.Mitigation, bad.Attack.Hijack = S2SLOb, 99
	if !sameRun(&clean, &bad) {
		t.Fatal("the members are not one run; the copy is not exercised")
	}
	done := 0
	err := NewRunner().RunGroup([]ExperimentConfig{clean, bad}, func(int) *Results { return &Results{} },
		func(int, *Results) error { done++; return nil })
	if want := "Attack.Hijack = 99 out of range"; err == nil || !strings.Contains(err.Error(), want) || done != 1 {
		t.Fatalf("RunGroup = %v after %d members, want an error containing %q after 1", err, done, want)
	}
}
