package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tasp/internal/tab"
)

// testSpec is a small but heterogeneous grid: two topologies, two traffic
// models, attack on/off, two mitigations, two seeds — 32 points, cycles cut
// down so the whole grid runs in a couple of seconds.
func testSpec() Spec {
	return Spec{
		Topologies:  []string{"mesh", "ring"},
		Benchmarks:  []string{"blackscholes", "fft"},
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"none", "s2s-lob"},
		Seeds:       []uint64{1, 2},
		Warmup:      150,
		Measure:     150,
	}
}

func runToBytes(t *testing.T, spec Spec, opt Options) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.jsonl")
	n, err := Run(context.Background(), spec, out, opt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != spec.Size() {
		t.Fatalf("run wrote %d records, grid has %d points", n, spec.Size())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGridExpansion pins the canonical expansion order and size.
func TestGridExpansion(t *testing.T) {
	spec := testSpec()
	scenarios := spec.Expand()
	if len(scenarios) != 32 || spec.Size() != 32 {
		t.Fatalf("expected 32 points, got %d (Size %d)", len(scenarios), spec.Size())
	}
	// Seeds innermost, then mitigations, attacks, benchmarks, topologies.
	if scenarios[0].Seed != 1 || scenarios[1].Seed != 2 {
		t.Errorf("seeds are not the innermost axis: %+v %+v", scenarios[0], scenarios[1])
	}
	if scenarios[0].Mitigation != "none" || scenarios[2].Mitigation != "s2s-lob" {
		t.Errorf("mitigations should advance after seeds: %+v", scenarios[2])
	}
	if scenarios[0].Topology != "mesh" || scenarios[16].Topology != "ring" {
		t.Errorf("topologies should be the outermost axis: %+v", scenarios[16])
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec should validate: %v", err)
	}
	bad := spec
	bad.Mitigations = []string{"firewall"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown mitigation should fail validation")
	}
}

// TestParseSpecRejectsUnknownFields guards against typo'd axes silently
// running the default grid.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"topolgies": ["mesh"]}`)); err == nil {
		t.Fatal("misspelled axis should be rejected")
	}
	s, err := ParseSpec([]byte(`{"topologies": ["mesh"], "seed_count": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 {
		t.Fatalf("want 3 points, got %d", s.Size())
	}
}

// TestWorkerCountInvariance is the campaign determinism contract: the same
// grid produces byte-identical JSONL at any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	spec := testSpec()
	ref := runToBytes(t, spec, Options{Workers: 1})
	if len(ref) == 0 {
		t.Fatal("no output")
	}
	for _, workers := range []int{4, 8} {
		got := runToBytes(t, spec, Options{Workers: workers})
		if !bytes.Equal(ref, got) {
			t.Errorf("workers=%d output differs from workers=1 (%d vs %d bytes)", workers, len(got), len(ref))
		}
	}
}

// TestRecordRoundTrip checks the hand-rolled encoder against encoding/json:
// every line must decode back to the record the worker produced.
func TestRecordRoundTrip(t *testing.T) {
	spec := testSpec()
	data := runToBytes(t, spec, Options{Workers: 4})
	records, err := ReadRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(records) != spec.Size() {
		t.Fatalf("decoded %d records, want %d", len(records), spec.Size())
	}
	for i, rec := range records {
		if rec.Index != i {
			t.Fatalf("record %d has index %d: output is not in grid order", i, rec.Index)
		}
		// Re-encode through both encoders: the manual one must agree with
		// encoding/json on content.
		var std Record
		line := rec.AppendJSONL(nil)
		if err := json.Unmarshal(line, &std); err != nil {
			t.Fatalf("record %d: re-encode: %v", i, err)
		}
		if !reflect.DeepEqual(rec, std) {
			t.Fatalf("record %d corrupted by re-encode:\n%+v\n%+v", i, rec, std)
		}
	}
	// The attacked mesh arms must actually show the attack.
	saw := false
	for _, rec := range records {
		if rec.Attack == "dest" && rec.Mitigation == "none" && rec.Topology == "mesh" && rec.HTInjections > 0 {
			saw = true
		}
	}
	if !saw {
		t.Error("no attacked mesh record shows trojan injections")
	}
}

// TestKillResumeByteIdentical kills a sweep mid-run (via context
// cancellation from the record hook), resumes it, and requires the
// concatenated output to be byte-identical to an uninterrupted run — at
// several worker counts and kill points.
func TestKillResumeByteIdentical(t *testing.T) {
	spec := testSpec()
	ref := runToBytes(t, spec, Options{Workers: 1})
	for _, workers := range []int{1, 4, 8} {
		for _, killAfter := range []int{3, 17} {
			out := filepath.Join(t.TempDir(), "out.jsonl")
			ctx, cancel := context.WithCancel(context.Background())
			n, err := Run(ctx, spec, out, Options{
				Workers:         workers,
				CheckpointEvery: 5,
				OnRecord: func(written int) {
					if written >= killAfter {
						cancel()
					}
				},
			})
			cancel()
			if err == nil {
				t.Fatalf("workers=%d kill=%d: cancelled run reported success after %d records", workers, killAfter, n)
			}
			ck, ok, err := ReadCheckpoint(CheckpointPath(out))
			if err != nil || !ok {
				t.Fatalf("workers=%d kill=%d: no checkpoint after kill: %v", workers, killAfter, err)
			}
			if ck.Written < killAfter {
				t.Fatalf("workers=%d kill=%d: checkpoint written=%d below the kill point", workers, killAfter, ck.Written)
			}
			if workers == 1 && ck.Written >= spec.Size() {
				// With one worker, in-flight work past the kill point is
				// bounded, so the run must genuinely have stopped early.
				t.Fatalf("workers=1 kill=%d: run completed despite cancellation", killAfter)
			}
			// Simulate the kill happening after more bytes hit the file than
			// the checkpoint committed: append garbage that the resume's
			// truncation must discard.
			f, err := os.OpenFile(out, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"index":9999,"torn`); err != nil {
				t.Fatal(err)
			}
			f.Close()
			n, err = Run(context.Background(), spec, out, Options{
				Workers: workers,
				Resume:  true,
			})
			if err != nil {
				t.Fatalf("workers=%d kill=%d: resume: %v", workers, killAfter, err)
			}
			if n != spec.Size() {
				t.Fatalf("workers=%d kill=%d: resume finished at %d/%d records", workers, killAfter, n, spec.Size())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Errorf("workers=%d kill=%d: resumed output differs from uninterrupted run", workers, killAfter)
			}
		}
	}
}

// TestResumeGuards pins the failure modes: resuming without a checkpoint,
// or against a different spec, must fail loudly.
func TestResumeGuards(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.jsonl")
	spec := testSpec()
	if _, err := Run(context.Background(), spec, out, Options{Workers: 2, Resume: true}); err == nil {
		t.Fatal("resume without a checkpoint should fail")
	}
	if _, err := Run(context.Background(), spec, out, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seeds = []uint64{7}
	if _, err := Run(context.Background(), other, out, Options{Workers: 2, Resume: true}); err == nil {
		t.Fatal("resume with a different spec should fail")
	}
	// Resuming a finished run is a no-op that keeps the bytes intact.
	before, _ := os.ReadFile(out)
	n, err := Run(context.Background(), spec, out, Options{Workers: 2, Resume: true})
	if err != nil || n != spec.Size() {
		t.Fatalf("resume of finished run: n=%d err=%v", n, err)
	}
	after, _ := os.ReadFile(out)
	if !bytes.Equal(before, after) {
		t.Error("resume of a finished run modified the output")
	}
}

// TestAggregate checks grouping, CI math and both table renderings.
func TestAggregate(t *testing.T) {
	spec := testSpec()
	data := runToBytes(t, spec, Options{Workers: 4})
	records, err := ReadRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	groups := Aggregate(records)
	if len(groups) != 16 {
		t.Fatalf("32 records over 2 seeds should give 16 groups, got %d", len(groups))
	}
	for _, g := range groups {
		if g.Throughput.N != 2 {
			t.Fatalf("group %s has %d seeds, want 2", g.Key, g.Throughput.N)
		}
		if g.Throughput.Mean <= 0 {
			t.Errorf("group %s has non-positive throughput", g.Key)
		}
	}
	rendered := Table(groups).Render()
	if !strings.Contains(rendered, "blackscholes") || !strings.Contains(rendered, "s2s-lob") {
		t.Errorf("generic table missing expected cells:\n%s", rendered)
	}
	// Cross-topology preset over a single-seed grid with the three arms.
	xt := Spec{
		Topologies:  []string{"mesh", "torus", "ring"},
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}},
		Mitigations: []string{"none", "s2s-lob"},
		Seeds:       []uint64{1},
		Warmup:      150,
		Measure:     150,
	}
	xdata := runToBytes(t, xt, Options{Workers: 4})
	xrecords, err := ReadRecords(bytes.NewReader(xdata))
	if err != nil {
		t.Fatal(err)
	}
	table, err := CrossTopologyTable(xrecords)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 || table.Rows[0][0] != "mesh" || table.Rows[1][0] != "torus" || table.Rows[2][0] != "ring" {
		t.Fatalf("cross-topology rows wrong:\n%s", table.Render())
	}
	if _, err := CrossTopologyTable(xrecords[:2]); err == nil {
		t.Error("missing arms should be an error")
	}

	// Synthetic record sets: a preset row shows one condition per arm, so a
	// second condition its label does not display must be rejected with an
	// error naming both groups, never merged into one row silently.
	arms := func(dim int, bench, attack string) []Record {
		var out []Record
		for _, a := range [][2]string{{"none", "none"}, {attack, "none"}, {attack, "s2s-lob"}} {
			out = append(out, Record{Topology: "mesh", Width: dim, Height: dim, Benchmark: bench,
				Attack: a[0], Mitigation: a[1], Throughput: 1, Routers: dim * dim})
		}
		return out
	}
	twoBench := append(arms(4, "blackscholes", "dest"), arms(4, "fft", "dest")...)
	twoDims := append(arms(4, "blackscholes", "dest"), arms(8, "blackscholes", "dest")...)
	twoAttacks := append(arms(4, "blackscholes", "dest"), arms(4, "blackscholes", "dest-drop")[1:]...)
	for _, tc := range []struct {
		name    string
		preset  func([]Record) (tab.Table, error)
		records []Record
		want    []string // the groups the error names; nil = a row per label
	}{
		{"cross-topology two benchmarks", CrossTopologyTable, twoBench,
			[]string{"mesh 4x4 blackscholes attack=none mit=none", "mesh 4x4 fft attack=none mit=none"}},
		{"cross-topology two dims", CrossTopologyTable, twoDims,
			[]string{"mesh 4x4 blackscholes attack=none mit=none", "mesh 8x8 blackscholes attack=none mit=none"}},
		{"cross-topology dest and dest-drop", CrossTopologyTable, twoAttacks,
			[]string{"mesh 4x4 blackscholes attack=dest mit=none", "mesh 4x4 blackscholes attack=dest-drop mit=none"}},
		{"scale two benchmarks", ScaleTable, twoBench,
			[]string{"mesh 4x4 blackscholes attack=none mit=none", "mesh 4x4 fft attack=none mit=none"}},
		{"scale dest and dest-drop", ScaleTable, twoAttacks,
			[]string{"mesh 4x4 blackscholes attack=dest mit=none", "mesh 4x4 blackscholes attack=dest-drop mit=none"}},
		{"scale two dims", ScaleTable, twoDims, nil},
	} {
		table, err := tc.preset(tc.records)
		if tc.want == nil {
			if err != nil || len(table.Rows) != 2 || table.Rows[0][0] != "4x4 mesh" || table.Rows[1][0] != "8x8 mesh" {
				t.Errorf("%s: want rows 4x4 mesh and 8x8 mesh, got err %v:\n%s", tc.name, err, table.Render())
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, rendering:\n%s", tc.name, table.Render())
			continue
		}
		for _, g := range tc.want {
			if !strings.Contains(err.Error(), g) {
				t.Errorf("%s: error %q does not name group %q", tc.name, err, g)
			}
		}
	}
}

// TestAttackModeGrid exercises the adversary axes end to end: trojan-family
// modes and explicit infected-link lists expand in canonical order, the
// records carry the drop-cause split and secure-ack verdict counts, and the
// sweep stays byte-deterministic across worker counts.
func TestAttackModeGrid(t *testing.T) {
	spec := Spec{
		Topologies: []string{"mesh"},
		Benchmarks: []string{"blackscholes"},
		Attacks: []AttackSpec{
			{Kind: "dest"},
			{Kind: "dest", Mode: "drop"},
			{Kind: "dest", Mode: "misroute"},
			{Kind: "dest", Mode: "drop", Links: []int{3, 17}},
		},
		Mitigations: []string{"none"},
		Seeds:       []uint64{1},
		Warmup:      400,
		Measure:     400,
		SecureAck:   true,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	scenarios := spec.Expand()
	if len(scenarios) != 4 {
		t.Fatalf("expected 4 points, got %d", len(scenarios))
	}
	wantNames := []string{"dest", "dest-drop", "dest-misroute", "dest-drop"}
	for i, sc := range scenarios {
		if got := sc.Attack.Name(); got != wantNames[i] {
			t.Errorf("point %d attack name = %q, want %q", i, got, wantNames[i])
		}
	}
	bad := spec
	bad.Attacks = []AttackSpec{{Kind: "dest", Mode: "teleport"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown trojan mode should fail validation")
	}

	ref := runToBytes(t, spec, Options{Workers: 1})
	if got := runToBytes(t, spec, Options{Workers: 4}); !bytes.Equal(ref, got) {
		t.Error("attack-mode sweep not byte-deterministic across worker counts")
	}
	records, err := ReadRecords(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}

	flip, drop, misroute, pinned := records[0], records[1], records[2], records[3]
	if flip.AckFlagged != 0 || flip.DroppedInFlight != 0 {
		t.Errorf("flip arm shows quiet-trojan artefacts: %+v", flip)
	}
	if drop.DroppedInFlight == 0 || drop.DroppedOrphan == 0 {
		t.Errorf("drop arm lost nothing: inflight=%d orphan=%d", drop.DroppedInFlight, drop.DroppedOrphan)
	}
	if drop.AckFlagged != len(drop.InfectedLinks) {
		t.Errorf("drop arm flagged %d of %d infected links", drop.AckFlagged, len(drop.InfectedLinks))
	}
	if misroute.DroppedInFlight != 0 {
		t.Errorf("misroute arm swallowed flits: %d", misroute.DroppedInFlight)
	}
	if misroute.AckFlagged != len(misroute.InfectedLinks) {
		t.Errorf("misroute arm flagged %d of %d infected links", misroute.AckFlagged, len(misroute.InfectedLinks))
	}
	if len(pinned.InfectedLinks) != 2 || pinned.InfectedLinks[0] != 3 || pinned.InfectedLinks[1] != 17 {
		t.Errorf("explicit link list not honoured: %v", pinned.InfectedLinks)
	}
	if pinned.AckFlagged == 0 {
		t.Error("pinned-links drop arm never convicted")
	}
}

// TestResumeRejectsStaleCheckpoint is the regression test for checkpoint
// offsets beyond the end of the output file: truncating a file to a larger
// offset zero-extends it with sparse NULs, so a stale or foreign sidecar
// would silently corrupt the resumed JSONL instead of failing loudly.
func TestResumeRejectsStaleCheckpoint(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.jsonl")
	spec := testSpec()
	if _, err := Run(context.Background(), spec, out, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	// Shrink the output behind the checkpoint's back: the sidecar now
	// claims an offset past the end of the file.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), spec, out, Options{Workers: 2, Resume: true})
	if err == nil {
		t.Fatal("resume with a stale checkpoint should fail")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("error should name the stale checkpoint, got: %v", err)
	}
	// The half file must be exactly as the failed resume found it: no
	// truncation, no zero-extension.
	after, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data[:len(data)/2]) {
		t.Fatal("failed resume modified the output file")
	}
}

// TestSpecValidateRejectsBadAttackInputs: every malformed attack input fails
// Spec.Validate, before any point runs, with an error naming the field and
// its valid range — instead of panicking mid-sweep, wrapping a router id or
// silently running something else.
func TestSpecValidateRejectsBadAttackInputs(t *testing.T) {
	for _, tc := range []struct {
		name, spec, want string
	}{
		{"link id past the topology", `{"attacks":[{"kind":"dest","links":[999]}]}`, "Attack.Links entry = 999 out of range 0..47"},
		{"dest router past the mesh", `{"attacks":[{"kind":"dest","dest":20}]}`, "Attack.Target.DstR = 20 out of range 0..15"},
		{"disabled attack's victim past the mesh", `{"attacks":[{"kind":"none","dest":20}]}`, "Attack.Target.DstR = 20 out of range 0..15"},
		{"src router past the mesh", `{"attacks":[{"kind":"dest-src","src":16}]}`, "Attack.Target.SrcR = 16 out of range 0..15"},
		{"vc past the port", `{"attacks":[{"kind":"vc","vc":4}]}`, "Attack.Target.VC = 4 out of range 0..3"},
		{"dest wraps a uint8", `{"attacks":[{"kind":"dest","dest":256}]}`, "attack.dest = 256 does not fit a header id (0..255)"},
		{"negative src", `{"attacks":[{"kind":"src","src":-1}]}`, "attack.src = -1 does not fit a header id (0..255)"},
		{"hijack past the mesh", `{"attacks":[{"kind":"dest","mode":"misroute","hijack":99}]}`, "Attack.Hijack = 99 out of range: -1 (auto) or 0..15"},
		{"recover without secure-ack", `{"recover":true}`, "RecoverOnConvict requires SecureAck"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			err = spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
