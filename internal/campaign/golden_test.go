package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tasp/internal/tab"
)

// TestGoldenPresetsByteIdentical pins the cross-substrate studies to their
// golden files along the path `cmd/campaign` users take: each spec runs
// through Run at the default worker count, its records are read back, and
// the preset's table, printed as `campaign aggregate -preset` prints it,
// must equal testdata/golden/extension-<id>.txt byte for byte. `-cpu 1,2`
// covers serial and concurrent workers.
func TestGoldenPresetsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-protocol cross-topology and scale grids")
	}
	root := filepath.Join("..", "..")
	for _, tc := range []struct {
		id, spec string
		preset   func([]Record) (tab.Table, error)
	}{
		{"topology", "cross-topology.json", CrossTopologyTable},
		{"scale", "scale.json", ScaleTable},
	} {
		t.Run(tc.id, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(root, "specs", tc.spec))
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
			table, err := tc.preset(records)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(root, "testdata", "golden", "extension-"+tc.id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := table.Render() + "\n"; got != string(want) {
				t.Errorf("%s preset diverged from its golden file:\n got:\n%s\nwant:\n%s", tc.id, got, want)
			}
		})
	}
}
