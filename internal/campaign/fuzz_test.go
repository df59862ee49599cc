package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuzzPoints bounds the grids FuzzSpec validates and expands: Validate
// lowers every point, so a large grid costs a fuzz iteration seconds.
const maxFuzzPoints = 4096

// FuzzSpec feeds arbitrary bytes to ParseSpec. No input may panic. A spec
// that parses hashes; a grid past maxPoints fails Validate, and one small
// enough validates and expands to Size points; its canonical JSON must
// parse back to a spec with the same Hash, the same expansion and the same
// Validate verdict. The seed corpus is every committed spec and benchmark
// workload.
func FuzzSpec(f *testing.F) {
	for _, pattern := range []string{"../../specs/*.json", "../../bench/workloads/*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	// Validate once let this through, and the sweep panicked in tasp.New.
	f.Add([]byte(`{"attacks":[{"kind":"dest","y_bits":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		canon, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("a parsed spec does not encode: %v", err)
		}
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("the canonical encoding %s does not parse: %v", canon, err)
		}
		if s.Hash() != back.Hash() {
			t.Fatalf("the canonical round trip changes the hash: %s", canon)
		}
		n := s.Size()
		if n > maxPoints {
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "limit") {
				t.Fatalf("Validate of a %d-point grid = %v, want the point limit's error", n, err)
			}
			return
		}
		if n > maxFuzzPoints {
			return
		}
		points := s.Expand()
		if len(points) != n {
			t.Fatalf("Size = %d, Expand gives %d points", n, len(points))
		}
		grid, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		backGrid, err := json.Marshal(back.Expand())
		if err != nil {
			t.Fatal(err)
		}
		if string(grid) != string(backGrid) {
			t.Fatalf("the canonical round trip changes the expansion: %s", canon)
		}
		verdict, backVerdict := fmt.Sprint(s.Validate()), fmt.Sprint(back.Validate())
		if verdict != backVerdict {
			t.Fatalf("Validate says %s of the spec and %s of its canonical encoding %s", verdict, backVerdict, canon)
		}
	})
}

// FuzzResume feeds arbitrary checkpoint sidecars to a resume of a small
// committed run. No sidecar may panic, and none may leave the output other
// than an uninterrupted run's bytes: a resume either fails, leaving the
// output as it found it, or finishes it byte for byte. The seed corpus is
// the sidecar of every record boundary, negative fields, counts above and
// below the records at the offset, and offsets inside a record and past
// the end.
func FuzzResume(f *testing.F) {
	spec := Spec{Benchmarks: []string{"fft"}, Mitigations: []string{"none", "s2s-lob"}, SeedCount: 2, Warmup: 40, Measure: 40}
	ref := filepath.Join(f.TempDir(), "ref.jsonl")
	if _, err := Run(context.Background(), spec, ref, Options{Workers: 1}); err != nil {
		f.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		f.Fatal(err)
	}
	hash := spec.Hash()
	sidecar := func(written int, offset int64) []byte {
		data, err := json.Marshal(Checkpoint{SpecHash: hash, Written: written, Offset: offset})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	var ends []int64 // ends[i]: the bytes of the first i records
	var offset int64
	for i, line := range bytes.SplitAfter(want, []byte("\n")) {
		f.Add(sidecar(i, offset))
		ends = append(ends, offset)
		offset += int64(len(line))
	}
	f.Add(sidecar(-1, 0))
	f.Add(sidecar(1, 0))
	f.Add(sidecar(0, -1))
	f.Add(sidecar(1, ends[2]))
	f.Add(sidecar(1, ends[1]+5))
	f.Add(sidecar(spec.Size(), int64(len(want))+1))
	f.Add([]byte(`{"written":1`))
	f.Fuzz(func(t *testing.T, data []byte) {
		out := filepath.Join(t.TempDir(), "out.jsonl")
		if err := os.WriteFile(out, want, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CheckpointPath(out), data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := Run(context.Background(), spec, out, Options{Workers: 1, Resume: true})
		got, rerr := os.ReadFile(out)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resume from sidecar %q (err %v) left %d bytes, not the uninterrupted run's %d", data, err, len(got), len(want))
		}
		if err == nil && n != spec.Size() {
			t.Fatalf("resume from sidecar %q finished at %d of %d records", data, n, spec.Size())
		}
	})
}

// FuzzRecords feeds arbitrary bytes to ReadRecords. No input may panic, and
// each must either fail or decode to records that AppendJSONL encodes back
// to the input (with the last line's newline, which may be missing). The
// seed corpus is a small committed run, whole and line by line, the empty
// object, an index alone, a record with an unknown field and a truncated
// record.
func FuzzRecords(f *testing.F) {
	spec := Spec{Benchmarks: []string{"fft"}, Attacks: []AttackSpec{{Kind: "none"}, {Kind: "dest"}}, Warmup: 40, Measure: 40}
	out := filepath.Join(f.TempDir(), "out.jsonl")
	if _, err := Run(context.Background(), spec, out, Options{Workers: 1}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	lines := bytes.SplitAfter(data, []byte("\n"))
	for _, line := range lines {
		f.Add(line)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"index":3}`))
	f.Add(bytes.Replace(lines[0], []byte(`{"index":0,`), []byte(`{"index":0,"extra":1,`), 1))
	f.Add(lines[1][:len(lines[1])/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc []byte
		for i := range records {
			enc = records[i].AppendJSONL(enc)
		}
		want := data
		if len(data) > 0 && data[len(data)-1] != '\n' {
			want = append(want[:len(want):len(want)], '\n')
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("ReadRecords accepted %q as %d records that encode to %q", data, len(records), enc)
		}
	})
}
