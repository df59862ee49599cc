package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenPresetsByteIdentical pins every preset to its golden file along
// the path `cmd/campaign` users take: specs/<name>.json runs through Run at
// the default worker count, its records are read back, and the preset's
// table, printed as `campaign aggregate -preset <name>` prints it, must
// equal testdata/golden/extension-<name>.txt byte for byte. `-cpu 1,2`
// covers serial and concurrent workers.
func TestGoldenPresetsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every preset's full-protocol grid")
	}
	root := filepath.Join("..", "..")
	for _, p := range Presets() {
		t.Run(p.Name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(root, "specs", p.Name+".json"))
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
			table, err := p.Render(records)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(root, "testdata", "golden", "extension-"+p.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := table.Render() + "\n"; got != string(want) {
				t.Errorf("%s preset diverged from its golden file:\n got:\n%s\nwant:\n%s", p.Name, got, want)
			}
		})
	}
}
