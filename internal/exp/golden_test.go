package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenExperimentsAllByteIdentical is the in-tree twin of `make
// golden-check`: the canonical 4x4 `-exp all` output must stay byte-for-byte
// what the golden file records. The extension studies are campaign presets
// outside the canonical set, pinned by their own golden files (campaign's
// TestGoldenPresetsByteIdentical); anything that moves these bytes is
// either a deliberate output change (regenerate with `make golden`) or a
// determinism regression.
func TestGoldenExperimentsAllByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full canonical experiment set")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "experiments-all-mesh.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RenderAll(RunAll(Registry("blackscholes"), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("canonical output diverged from golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("canonical output length diverged from golden: %d vs %d lines", len(gl), len(wl))
}
