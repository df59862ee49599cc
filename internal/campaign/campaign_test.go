package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tasp/internal/core"
	"tasp/internal/locate"
	"tasp/internal/stats"
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

// TestReadRecordsRejectsLinesThatAreNotRecords: ReadRecords accepts a line
// only when it is byte for byte a record as Run writes it, and names the
// first line that is not. The empty object and an index alone would
// otherwise aggregate into a row of empty fields.
func TestReadRecordsRejectsLinesThatAreNotRecords(t *testing.T) {
	spec := Spec{Benchmarks: []string{"fft"}, Attacks: []AttackSpec{{Kind: "none"}, {Kind: "dest"}}, Warmup: 40, Measure: 40}
	data := runToBytes(t, spec, Options{Workers: 1})
	if records, err := ReadRecords(bytes.NewReader(data)); err != nil || len(records) != 2 {
		t.Fatalf("the run's own output: %d records, err %v", len(records), err)
	}
	nl := []byte("\n")
	good := bytes.Split(bytes.TrimSuffix(data, nl), nl)[0]
	if records, err := ReadRecords(bytes.NewReader(good)); err != nil || len(records) != 1 {
		t.Fatalf("one record without its newline: %d records, err %v", len(records), err)
	}
	differs := func(col int) string {
		return fmt.Sprintf("not a record as campaign run writes it (it differs from its encoding at column %d)", col)
	}
	for _, tc := range []struct{ name, line, want string }{
		{"empty object", `{}`, differs(2)},
		{"index alone", `{"index":3}`, differs(11)},
		{"unknown field", strings.Replace(string(good), `{"index":0,`, `{"index":0,"extra":1,`, 1), differs(13)},
		{"truncated", string(good[:len(good)/2]), "unexpected end of JSON input"},
		{"reformatted number", strings.Replace(string(good), `"routers":16`, `"routers":16.0`, 1), "cannot unmarshal"},
		{"blank", "", "unexpected end of JSON input"},
		{"carriage return", string(good) + "\r", differs(len(good) + 1)},
	} {
		in := string(good) + "\n" + tc.line + "\n" + string(good) + "\n"
		records, err := ReadRecords(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadRecords = %d records, err %v; want an error on line 2 containing %q", tc.name, len(records), err, tc.want)
		}
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
			var stopped *StoppedError
			if !errors.As(err, &stopped) || !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d kill=%d: cancelled run returned %v after %d records, want a StoppedError wrapping context.Canceled",
					workers, killAfter, err, n)
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
// or against a different spec, must fail loudly, before the sweep starts
// (so with a plain error, not a resumable StoppedError).
func TestResumeGuards(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.jsonl")
	spec := testSpec()
	var stopped *StoppedError
	if _, err := Run(context.Background(), spec, out, Options{Workers: 2, Resume: true}); err == nil || errors.As(err, &stopped) {
		t.Fatalf("resume without a checkpoint = %v, want a plain error", err)
	}
	if _, err := Run(context.Background(), spec, out, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seeds = []uint64{7}
	if _, err := Run(context.Background(), other, out, Options{Workers: 2, Resume: true}); err == nil || errors.As(err, &stopped) {
		t.Fatalf("resume with a different spec = %v, want a plain error", err)
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
	groups, err := Aggregate(records)
	if err != nil {
		t.Fatal(err)
	}
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
	// error naming both groups, never merged into one row silently; and
	// records that give a preset no row are an error naming the preset,
	// not a header-only table.
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
		{"cross-topology no records", CrossTopologyTable, nil, []string{"cross-topology preset: no row"}},
		{"scale no records", ScaleTable, nil, []string{"scale preset: no row"}},
		{"locate clean only", LocateTable, twoBench[:1], []string{"locate preset: no row"}},
		{"adversary clean only", AdversaryTable, twoBench[:1], []string{"adversary preset: no row"}},
		{"adaptive clean only", AdaptiveTable, twoBench[:1], []string{"adaptive preset: no row"}},
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

	// Every shipped spec, with the identity fields a worker writes: one
	// group per grid entry, each holding every seed once. adversary-modes.json
	// lists two drop entries, and adaptive-adversary.json two throttle and
	// two collude entries, that differ only in deployment fields.
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var recs []Record
		for i, sc := range spec.Expand() {
			cfg, err := sc.Config()
			if err != nil {
				t.Fatalf("%s point %d: %v", path, i, err)
			}
			var r Record
			r.identify(i, &sc, &cfg)
			recs = append(recs, r)
		}
		groups, err := Aggregate(recs)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if seeds := len(spec.seeds()); len(groups)*seeds != len(recs) {
			t.Errorf("%s: %d points over %d seeds aggregate into %d groups, want %d", path, len(recs), seeds, len(groups), len(recs)/seeds)
		}
	}

	// The backstop: a group holding one seed twice is rejected, naming it.
	twice := arms(4, "blackscholes", "dest")
	twice = append(twice, twice[1])
	if _, err := Aggregate(twice); err == nil || !strings.Contains(err.Error(), "attack=dest mit=none det=") || !strings.Contains(err.Error(), "seed 0 twice") {
		t.Errorf("a group holding one seed twice: Aggregate error %v", err)
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
	wantNames := []string{"dest", "dest-drop", "dest-misroute", "dest-drop[links=3,17]"}
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

// TestHugeGridFailsWithAnError: a grid past maxPoints — here a seed axis of
// 2^62, and one whose axes' product overflows an int — fails Validate and
// Run with an error naming its size, before anything expands it or
// creates the output.
func TestHugeGridFailsWithAnError(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{`{"benchmarks":["fft"],"seed_count":4611686018427387904}`, "the grid has 4611686018427387904 points; the limit is 1000000"},
		{`{"benchmarks":["fft","lu"],"seed_count":4611686018427387904}`, "overflows an int; the limit is 1000000 points"},
		{`{"seed_count":1000001}`, "the grid has 1000001 points"},
	} {
		spec, err := ParseSpec([]byte(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.spec, err, tc.want)
		}
		out := filepath.Join(t.TempDir(), "out.jsonl")
		if _, err := Run(context.Background(), spec, out, Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run() = %v, want an error containing %q", tc.spec, err, tc.want)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s: Run created the output", tc.spec)
		}
	}
	if n := (Spec{SeedCount: maxPoints}).Size(); n != maxPoints {
		t.Errorf("Size = %d, want %d", n, maxPoints)
	}
}

// TestSpecValidateRejectsBadAttackInputs: every malformed attack input, and
// every out-of-range platform, protocol or fault value, fails Spec.Validate,
// before any point runs, with an error naming the field and its valid range
// — instead of panicking mid-sweep, wrapping a router id or silently
// running something else.
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
		{"bit-error rate above 1", `{"transient_ber":2}`, "TransientBER = 2 out of range [0, 1]"},
		{"negative bit-error rate", `{"transient_ber":-0.1}`, "TransientBER = -0.1 out of range [0, 1]"},
		{"negative width", `{"dims":[{"width":-4,"height":4}]}`, "width = -4: must be positive, or 0 for the default"},
		{"negative height", `{"dims":[{"width":4,"height":-4}]}`, "height = -4: must be positive, or 0 for the default"},
		{"negative warmup", `{"warmup":-5}`, "warmup = -5: must be positive, or 0 for the default"},
		{"negative measure", `{"measure":-10}`, "measure = -10: must be positive, or 0 for the default"},
		{"unknown benchmark after a known one", `{"benchmarks":["blackscholes","nope"]}`, `Benchmark = "nope" unknown (have [`},
		{"negative payload counter", `{"attacks":[{"kind":"dest","y_bits":-1}]}`, "y_bits = -1: must be positive, or 0 for the default"},
		{"one-bit payload counter", `{"attacks":[{"kind":"dest","y_bits":1}]}`, "Attack.YBits = 1 out of range: 0 (default) or 2..72"},
		{"payload counter past the codeword", `{"attacks":[{"kind":"dest","y_bits":73}]}`, "Attack.YBits = 73 out of range: 0 (default) or 2..72"},
		{"negative link count", `{"attacks":[{"kind":"dest","num_links":-3}]}`, "num_links = -3: must be positive, or 0 for the default"},
		{"negative duty period", `{"attacks":[{"kind":"dest","mode":"throttle","duty_period":-5}]}`, "duty_period = -5: must be positive, or 0 for the default"},
		{"negative duty span", `{"attacks":[{"kind":"dest","mode":"collude","duty_active":-5}]}`, "duty_active = -5: must be positive, or 0 for the default"},
		{"throttle span past its period", `{"attacks":[{"kind":"dest","mode":"throttle","duty_period":40,"duty_active":41}]}`, "Attack.DutyActive = 41 out of range: 0 (default) or 1..40"},
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

// TestTimeToLocalize covers the t_localize scan in Fill on synthetic traces:
// the delay from the run's enable cycle until the rank-1 verdict settles
// inside the infected set for good, -1 when it never settles there.
func TestTimeToLocalize(t *testing.T) {
	trace := []locate.TraceSample{
		{Cycle: 1525, LinkID: 9},
		{Cycle: 1550, LinkID: 3},
		{Cycle: 1575, LinkID: 9},
		{Cycle: 1600, LinkID: 17},
		{Cycle: 1625, LinkID: 3},
	}
	for _, tc := range []struct {
		name     string
		trace    []locate.TraceSample
		enableAt uint64
		want     int64
	}{
		{"settles at 1600", trace, 0, 100},
		{"explicit enable cycle", trace, 1520, 80},
		{"ends on a clean link", trace[:3], 0, -1},
		{"no trace", nil, 0, -1},
	} {
		res := &core.Results{InfectedLinks: []int{3, 17}, SuspectTrace: tc.trace, Latency: stats.NewHistogram()}
		res.Config.Warmup, res.Config.Attack.EnableAt = 1500, tc.enableAt
		var r Record
		r.Fill(res)
		if r.TLocalize != tc.want {
			t.Errorf("%s: t_localize = %d, want %d", tc.name, r.TLocalize, tc.want)
		}
	}
}

// TestAdversaryPresetShapes runs specs/adversary.json and checks the
// table's qualitative content, which a regenerated golden file could lose:
// six rows (three substrates, two quiet families), every infected set
// convicted in full, and every rank-1 verdict an infected link.
func TestAdversaryPresetShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-protocol adversary grid")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", "adversary.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ReadRecords(bytes.NewReader(runToBytes(t, spec, Options{})))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := AdversaryTable(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows: %d, want 6 (3 topologies x 2 modes)", len(tb.Rows))
	}
	verdictCol, rankCol := len(tb.Columns)-2, len(tb.Columns)-1
	for _, row := range tb.Rows {
		if parts := strings.SplitN(row[verdictCol], "/", 2); len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("%s/%s: secure-ack convicted %s of the infected links", row[0], row[1], row[verdictCol])
		}
		if !strings.HasPrefix(row[rankCol], "hit") {
			t.Errorf("%s/%s: locate rank-1 missed the infected set (%s)", row[0], row[1], row[rankCol])
		}
	}
}

// TestRunStopsAtTheInvalidPoint: a sweep over a grid with one point that
// lowers but fails to run (a one-bit payload counter) stops at that point
// and names it, at one and two workers, and commits every record before
// it. At two workers the invalid point is a group of its own, so it fails
// while the other worker's group is in flight; that group still finishes
// and commits.
func TestRunStopsAtTheInvalidPoint(t *testing.T) {
	spec := Spec{
		Benchmarks:  []string{"blackscholes"},
		Attacks:     []AttackSpec{{Kind: "none"}, {Kind: "dest"}, {Kind: "dest", YBits: 1}},
		Mitigations: []string{"none"},
		SeedCount:   1,
		Warmup:      100,
		Measure:     100,
	}
	const want = "point 2: core: Attack.YBits = 1 out of range: 0 (default) or 2..72"
	for _, workers := range []int{1, 2} {
		out := filepath.Join(t.TempDir(), "out.jsonl")
		n, err := Run(context.Background(), spec, out, Options{Workers: workers})
		var stopped *StoppedError
		if !errors.As(err, &stopped) || err.Error() != want {
			t.Fatalf("workers=%d: Run = %v, want a StoppedError %q", workers, err, want)
		}
		if n != 2 {
			t.Errorf("workers=%d: %d records committed, want the 2 before the invalid point", workers, n)
		}
	}
}
