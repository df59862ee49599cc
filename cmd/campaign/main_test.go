package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResumeFailureBeforeTheSweepHasNoHint: a resume that fails before its
// sweep starts, on a missing or corrupt checkpoint sidecar, prints only the
// error. Advising "campaign resume" there would repeat the command that
// just failed. The committed output stays byte for byte as it was.
func TestResumeFailureBeforeTheSweepHasNoHint(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "two.json")
	if err := os.WriteFile(spec, []byte(`{"benchmarks":["fft"],"mitigations":["none","s2s-lob"],"warmup":40,"measure":40}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "two.jsonl")
	args := []string{"-spec", spec, "-out", out, "-quiet"}
	if err := runCmd(args, false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(want, []byte("\n")); n != 2 {
		t.Fatalf("the run wrote %d records, want 2", n)
	}
	sidecar := out + ".ckpt"
	for _, tc := range []struct {
		name, want string
		sidecar    func() error
	}{
		{"corrupt sidecar", "corrupt checkpoint", func() error { return os.WriteFile(sidecar, []byte(`{"written":-1}`), 0o644) }},
		{"missing sidecar", "no checkpoint", func() error { return os.Remove(sidecar) }},
	} {
		if err := tc.sidecar(); err != nil {
			t.Fatal(err)
		}
		err := runCmd(args, true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume = %v, want an error containing %q", tc.name, err, tc.want)
		} else if msg := err.Error(); strings.Contains(msg, "resume with") || strings.Contains(msg, "stopped at") {
			t.Errorf("%s: resume error %q reads as a stopped sweep", tc.name, msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the failed resume changed the output", tc.name)
		}
	}
}

// TestAggregateRefusesAnEmptyInput: aggregating a zero-byte file, with or
// without a preset, fails with an error naming the input and prints
// nothing, where the generic table used to print its bare header.
func TestAggregateRefusesAnEmptyInput(t *testing.T) {
	in := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(in, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, preset := range []string{"", "scale"} {
		var out bytes.Buffer
		err := aggregateCmd([]string{"-in", in, "-preset", preset}, &out)
		if err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("preset %q: aggregate = %v, want an error naming %s", preset, err, in)
		}
		if out.Len() != 0 {
			t.Errorf("preset %q: aggregate printed %q", preset, out.String())
		}
	}
}

// TestRunRejectsNegativeFlags: run and resume refuse a negative -workers
// or -checkpoint-every with an error naming the flag, before they touch
// the output, where -workers -1 used to run at GOMAXPROCS and
// -checkpoint-every -5 to checkpoint every 64 records.
func TestRunRejectsNegativeFlags(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "one.json")
	if err := os.WriteFile(spec, []byte(`{"benchmarks":["fft"],"warmup":40,"measure":40}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "one.jsonl")
	for _, resume := range []bool{false, true} {
		for _, tc := range []struct {
			flag, value, want string
		}{
			{"-workers", "-1", "-workers = -1: must be positive, or 0 for GOMAXPROCS"},
			{"-checkpoint-every", "-5", "-checkpoint-every = -5: must be positive, or 0 for 64"},
		} {
			err := runCmd([]string{"-spec", spec, "-out", out, "-quiet", tc.flag, tc.value}, resume)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("resume=%v %s %s: %v, want an error containing %q", resume, tc.flag, tc.value, err, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("resume=%v %s %s: the rejected run touched the output (%v)", resume, tc.flag, tc.value, err)
			}
		}
	}
}
