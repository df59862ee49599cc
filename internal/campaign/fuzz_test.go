package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// maxFuzzPoints bounds the grids FuzzSpec validates and expands: Validate
// lowers every point, so a large grid costs a fuzz iteration seconds.
const maxFuzzPoints = 4096

// gridSize is Spec.Size without materialising the seed axis, saturating at
// limit+1: a fuzzed seed_count may be far too large to allocate.
func gridSize(s Spec, limit int) int {
	n := len(s.Seeds)
	if n == 0 {
		n = max(s.SeedCount, 1)
	}
	for _, axis := range []int{len(s.Topologies), len(s.Dims), len(s.Benchmarks), len(s.Attacks), len(s.Mitigations), len(s.Detectors)} {
		if n > limit {
			break
		}
		n *= max(axis, 1)
	}
	return min(n, limit+1)
}

// FuzzSpec feeds arbitrary bytes to ParseSpec. No input may panic. A spec
// that parses hashes, and when its grid is small enough it validates and
// expands; its canonical JSON must parse back to a spec with the same Hash,
// the same expansion and the same Validate verdict. The seed corpus is
// every committed spec and benchmark workload.
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
		n := gridSize(s, maxFuzzPoints)
		if n > maxFuzzPoints {
			return
		}
		if size := s.Size(); size != n {
			t.Fatalf("Size = %d, want %d", size, n)
		}
		grid, err := json.Marshal(s.Expand())
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
