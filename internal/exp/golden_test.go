package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenExperimentsAllByteIdentical is the in-tree twin of `make
// golden-check`: the canonical 4x4 `-exp all` output must stay byte-for-byte
// what the golden file records. The extension studies are outside the
// canonical set and pinned by their own golden files
// (TestGoldenExtensionsByteIdentical); anything that moves these bytes is
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

// TestGoldenExtensionsByteIdentical pins each extension study's seed-1
// output (`cmd/experiments -exp <id>`, one table per Println) against its
// testdata/golden/extension-<id>.txt, the twin of the extension half of
// `make golden-check`. The extensions run fanned out across the default
// worker count, so `-cpu 1,2` covers serial and concurrent execution.
func TestGoldenExtensionsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every extension study")
	}
	for _, res := range RunAll(Extensions(), 1, 0) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "extension-"+res.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, tb := range res.Tables {
			got.WriteString(tb.Render())
			got.WriteString("\n")
		}
		if got.String() != string(want) {
			t.Errorf("extension %s diverged from its golden file:\n got:\n%s\nwant:\n%s", res.ID, got.String(), want)
		}
	}
}
