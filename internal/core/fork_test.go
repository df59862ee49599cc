package core

import (
	"fmt"
	"reflect"
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

// TestPreEnableClassifiesEveryField pins the pre-enable identity field by
// field: changing a field the network reads before the enable cycle must
// change the identity, and changing one that acts only from the enable
// cycle on must not. A field added to ExperimentConfig or AttackConfig
// fails here until it is classified — and, if it belongs to the identity,
// added to preEnable.
func TestPreEnableClassifiesEveryField(t *testing.T) {
	inKey := map[string]bool{
		"Noc": true, "Benchmark": true, "Model": true, "Seed": true,
		"Warmup": true, "Measure": false, "SampleEvery": true,
		"Mitigation": true, "TransientBER": true, "RerouteDetectDelay": false,
		"DetectorHistory": true, "EscalationOrder": true, "Locate": true,
		"SecureAck": true, "AckDeficitRatio": true, "RecoverOnConvict": true,
		"PredisabledLinks": true,
		// Attack is classified per field below.
		"Attack.EnableAt": true, "Attack.Enabled": false, "Attack.Kind": false,
		"Attack.Target": false, "Attack.YBits": false, "Attack.Hijack": false,
		"Attack.DutyPeriod": false, "Attack.DutyActive": false,
		"Attack.Links": false, "Attack.NumLinks": false,
	}
	check := func(name string, mut func(*ExperimentConfig) reflect.Value) {
		want, ok := inKey[name]
		if !ok {
			t.Errorf("field %s is not classified as pre-enable identity or not", name)
			return
		}
		base := DefaultExperiment()
		c := base
		bump(mut(&c))
		if got := !samePreEnable(&base, &c); got != want {
			t.Errorf("changing %s changes the pre-enable identity: %v, want %v", name, got, want)
		}
	}
	ct := reflect.TypeOf(ExperimentConfig{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if name != "Attack" {
			check(name, func(c *ExperimentConfig) reflect.Value { return reflect.ValueOf(c).Elem().Field(i) })
			continue
		}
		at := ct.Field(i).Type
		for j := 0; j < at.NumField(); j++ {
			check("Attack."+at.Field(j).Name, func(c *ExperimentConfig) reflect.Value {
				return reflect.ValueOf(c).Elem().Field(i).Field(j)
			})
		}
	}
	a, b := DefaultExperiment(), DefaultExperiment()
	b.Mitigation = Rerouting
	if !samePreEnable(&a, &b) {
		t.Error("rerouting acts only after enable, yet it splits the identity from no mitigation")
	}
	b.Attack.EnableAt = uint64(b.Warmup) // the default enable cycle, spelled out
	if !samePreEnable(&a, &b) {
		t.Error("an explicit enable cycle equal to the default splits the identity")
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
}

// stateAtEnable runs run on a fresh Runner and returns the state of the
// last point to finish cycle cfg.EnableCycle().
func stateAtEnable(t *testing.T, cfg ExperimentConfig, run func(*Runner) error) *forkState {
	t.Helper()
	r := NewRunner()
	st := &forkState{}
	r.audit = func(n *noc.Network) error {
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
// a checkpoint drops even when no outcome happens to depend on it.
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
	}{{"s2s-lob", lob}, {"secure-ack", secure}} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			clean := cfg
			clean.Attack.Enabled = false
			whole := stateAtEnable(t, cfg, func(r *Runner) error { return r.RunInto(cfg, &Results{}) })
			forked := stateAtEnable(t, cfg, func(r *Runner) error {
				res := &Results{}
				return r.RunGroup([]ExperimentConfig{clean, cfg}, func(int) *Results { return res }, nil)
			})
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
