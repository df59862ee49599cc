package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tasp/internal/detect"
	"tasp/internal/noc"
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

// TestPreEnableClassifiesEveryField pins both fork identities field by
// field. Changing a field the network reads before the enable cycle must
// change the pre-enable identity, and changing one that acts only from the
// enable cycle on must not. Changing any field a run reads must change the
// run identity; on a fault-free run (attack disabled, no transient faults)
// the fields that act only on faults must not. A field added to
// ExperimentConfig or AttackConfig fails here until it is classified — and
// added to preEnable or runKey where it belongs.
func TestPreEnableClassifiesEveryField(t *testing.T) {
	type class struct{ pre, run, cleanRun bool } // does a change split the identity?
	all, onFaults := class{true, true, true}, class{false, true, false}
	classes := map[string]class{
		"Noc": all, "Benchmark": all, "Model": all, "Seed": all, "Warmup": all,
		"Measure": {false, true, true}, "SampleEvery": all, "TransientBER": all,
		// The base is unmitigated, so the reroute delay acts on nothing;
		// under rerouting it is checked below.
		"RerouteDetectDelay": {false, false, false},
		"DetectorHistory":    onFaults, "EscalationOrder": onFaults, "Locate": all,
		"SecureAck": all, "AckDeficitRatio": all, "RecoverOnConvict": all,
		"PredisabledLinks": all,
		// Mitigation is classified per value: TDM and end-to-end scrambling
		// act from the first cycle, s2s-lob and rerouting only on faults.
		"Mitigation=s2s-lob": onFaults, "Mitigation=rerouting": onFaults,
		"Mitigation=tdm-qos": all, "Mitigation=e2e-obfuscation": all,
		// Attack is classified per field. A disabled attack still reports
		// its links and counts its target's deliveries.
		"Attack.EnableAt": all, "Attack.Enabled": {false, true, true},
		"Attack.Target": {false, true, true}, "Attack.Links": {false, true, true},
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

// forkState is everything a run carries across the enable cycle, as the
// checkpoint's own copy routines see it.
type forkState struct {
	net   noc.Checkpoint
	gen   traffic.GeneratorState
	ack   detect.AckMonitor
	flows []flowSlot
	steps int // cycles stepped by every point run
}

// stateAtEnable runs run on a fresh Runner and returns the state of the
// last point to finish cycle cfg.EnableCycle().
func stateAtEnable(t *testing.T, cfg ExperimentConfig, run func(*Runner) error) *forkState {
	t.Helper()
	r := NewRunner()
	st := &forkState{}
	r.audit = func(n *noc.Network) error {
		st.steps++
		if n.Cycle() != cfg.EnableCycle() {
			return nil
		}
		a := r.arenas[cfg.Noc]
		n.Save(&st.net)
		a.gens[r.models[modelKey{cfg.Benchmark, cfg.Noc}]].Save(&st.gen)
		if cfg.SecureAck {
			st.ack.CopyFrom(a.ackmon)
		}
		st.flows = st.flows[:0]
		for _, w := range a.wires {
			st.flows = w.saveFlows(st.flows)
		}
		return nil
	}
	if err := run(r); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestForkStateAtEnableMatchesWholeRun compares, one cycle after the fork,
// everything a resumed member carries — the network, the generator's draw
// position, the secure-ack monitor and every wire's flow latch — with the
// same point run whole. Unlike the end-to-end comparison, it catches state
// a checkpoint drops even when no outcome happens to depend on it. The
// resumed member is the attacked one, after its clean twin; in the latched
// case the twin is unmitigated, so the latches come from its warm-up run
// with mitigated wires.
func TestForkStateAtEnableMatchesWholeRun(t *testing.T) {
	base := DefaultExperiment()
	base.Warmup, base.Measure = 400, 50
	lob := base
	lob.Mitigation = S2SLOb
	secure := base
	secure.Noc.Topo = "torus"
	secure.Attack.Kind = tasp.KindDrop
	secure.SecureAck, secure.Locate = true, true
	for _, tc := range []struct {
		name string
		cfg  ExperimentConfig
		twin Mitigation // the clean twin's mitigation
	}{{"s2s-lob", lob, S2SLOb}, {"secure-ack", secure, NoMitigation}, {"latched", lob, NoMitigation}} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			clean := cfg
			clean.Attack.Enabled, clean.Mitigation = false, tc.twin
			whole := stateAtEnable(t, cfg, func(r *Runner) error { return r.RunInto(cfg, &Results{}) })
			forked := stateAtEnable(t, cfg, func(r *Runner) error {
				res := &Results{}
				return r.RunGroup([]ExperimentConfig{clean, cfg}, func(int) *Results { return res }, nil)
			})
			if forked.steps != whole.steps+cfg.Measure+1 {
				t.Fatalf("the group stepped %d cycles, the point alone %d: the attacked member did not resume", forked.steps, whole.steps)
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
			if !reflect.DeepEqual(whole.flows, forked.flows) {
				t.Error("flow latches differ")
			}
			live := 0
			for _, f := range whole.flows {
				if f.live {
					live++
				}
			}
			if cfg.Mitigation == S2SLOb && live == 0 {
				t.Error("no flow latched across the enable cycle; the comparison is vacuous")
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
