package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"tasp/internal/campaign"
)

func TestCampaignChecksCountOneFailurePerBadLine(t *testing.T) {
	spec, err := campaign.ParseSpec([]byte(`{
		"topologies": ["mesh", "ring"],
		"attacks": [{"kind": "none"}, {"kind": "dest"}],
		"warmup": 50, "measure": 50
	}`))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	if _, err := campaign.Run(context.Background(), spec, path, campaign.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if o := checkCampaign(spec, data, nil); o.Failed != 0 || o.Attempted != 4 {
		t.Fatalf("clean output: %d of %d failed: %v", o.Failed, o.Attempted, o.Problems)
	}
	nl := []byte("\n")
	lines := bytes.Split(bytes.TrimSuffix(data, nl), nl)
	join := func(ls [][]byte) []byte { return append(bytes.Join(ls, nl), '\n') }
	for _, c := range []struct {
		name string
		line int // 0 is the clean mesh point, 1 the attacked one
		edit func([]byte) []byte
	}{
		{"corrupt", 1, func(l []byte) []byte { return l[:len(l)/2] }},
		{"wrong seed", 1, func(l []byte) []byte { return bytes.Replace(l, []byte(`"seed":1`), []byte(`"seed":2`), 1) }},
		{"clean point strikes", 0, func(l []byte) []byte {
			return bytes.Replace(l, []byte(`"ht_matches":0`), []byte(`"ht_matches":3`), 1)
		}},
	} {
		bad := append([][]byte(nil), lines...)
		bad[c.line] = c.edit(lines[c.line])
		if o := checkCampaign(spec, join(bad), nil); o.Failed != 1 {
			t.Errorf("%s: %d failures, want 1: %v", c.name, o.Failed, o.Problems)
		}
	}
	if o := checkCampaign(spec, join(lines[:3]), context.Canceled); o.Failed != 1 {
		t.Errorf("one uncommitted point: %d failures, want 1", o.Failed)
	}
}

func TestPaperChecksCountOneFailurePerChangedSection(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	want := splitGolden(string(golden))
	var sections []section
	var joined string
	for _, id := range paperExperiments {
		sections = append(sections, section{id: id, text: want[id]})
		joined += want[id]
	}
	if joined != string(golden) {
		t.Fatal("the sections do not reassemble the golden output")
	}
	if o := checkPaper(sections, golden); o.Failed != 0 || o.Attempted != len(paperExperiments) {
		t.Fatalf("golden against itself: %d of %d failed: %v", o.Failed, o.Attempted, o.Problems)
	}
	changed := append([]byte(nil), golden...)
	changed[bytes.Index(changed, []byte("==== fig10 ===="))+40] ^= 1
	if o := checkPaper(sections, changed); o.Failed != 1 {
		t.Errorf("one changed golden byte: %d failures, want 1: %v", o.Failed, o.Problems)
	}
	if o := checkPaper(sections, nil); o.Failed != 0 {
		t.Errorf("without a golden output only errors count, got %d failures", o.Failed)
	}
}
